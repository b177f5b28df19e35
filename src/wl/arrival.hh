/**
 * @file
 * Open-loop arrival processes for the serving mode.
 *
 * The batch figure benches drive the server closed-loop: a fixed pool
 * of clients injects, waits for the reply, thinks, injects again. A
 * serving system sees the opposite regime — requests arrive whether
 * or not earlier ones finished. This header models that open loop as
 * an inhomogeneous Poisson process with a pluggable rate function:
 * constant (poisson), on/off square wave (burst), sinusoidal
 * modulation (diurnal), and a transient overload spike (flash).
 *
 * Gaps are drawn by Lewis-Shedler thinning against the peak rate, so
 * every mode reduces to one exponential draw plus one acceptance draw
 * per candidate and the sequence is fully determined by the seed.
 */

#ifndef RBV_WL_ARRIVAL_HH
#define RBV_WL_ARRIVAL_HH

#include <string>
#include <vector>

#include "stats/rng.hh"

namespace rbv::wl {

/** Shape of the arrival-rate function. */
enum class ArrivalMode
{
    Poisson,    ///< constant rate
    Burst,      ///< on/off square wave around the target rate
    Diurnal,    ///< sinusoidal day/night modulation
    FlashCrowd, ///< constant rate with one transient spike
};

/** All modes, in presentation order. */
const std::vector<ArrivalMode> &allArrivalModes();

/** Parse a mode name; throws std::invalid_argument on junk. */
ArrivalMode arrivalModeFromName(const std::string &name);

/**
 * Arrival-process parameters. The rate functions are normalized so
 * the long-run mean rate equals `qps` in every mode; the mode only
 * redistributes when the arrivals land.
 */
struct ArrivalConfig
{
    ArrivalMode mode = ArrivalMode::Poisson;
    /** Long-run mean arrival rate, requests per simulated second. */
    double qps = 1000.0;

    /** Burst mode: fraction of each period spent in the on phase. */
    double burstOnFraction = 0.25;
    /** Burst mode: on-phase rate as a multiple of qps. */
    double burstMultiplier = 3.0;
    /** Burst mode: square-wave period (simulated microseconds). */
    double burstPeriodUs = 1.0e6;

    /** Diurnal mode: modulation amplitude in [0, 1). */
    double diurnalAmplitude = 0.8;
    /** Diurnal mode: one simulated "day" (microseconds). */
    double diurnalPeriodUs = 10.0e6;

    /** Flash mode: spike start (simulated microseconds). */
    double flashStartUs = 2.0e6;
    /** Flash mode: spike duration (simulated microseconds). */
    double flashDurationUs = 1.0e6;
    /** Flash mode: spike rate as a multiple of qps. */
    double flashMultiplier = 8.0;
};

/**
 * Deterministic open-loop arrival sequence.
 *
 * nextGapUs() returns the gap to the next arrival; the process keeps
 * its own clock, so callers simply schedule each injection that many
 * simulated microseconds after the previous one.
 */
class ArrivalProcess
{
  public:
    ArrivalProcess(const ArrivalConfig &config, stats::Rng rng_);

    /** Instantaneous rate (requests per µs) at simulated time t. */
    double ratePerUs(double t_us) const;

    /** Upper bound on ratePerUs over all t (thinning envelope). */
    double peakRatePerUs() const;

    /** Draw the gap to the next arrival, in simulated microseconds. */
    double nextGapUs();

  private:
    ArrivalConfig cfg;
    stats::Rng rng;
    double clock = 0.0;
};

} // namespace rbv::wl

#endif // RBV_WL_ARRIVAL_HH
