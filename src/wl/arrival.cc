/**
 * @file
 * Open-loop arrival process implementation.
 */

#include "wl/arrival.hh"

#include <cmath>
#include <stdexcept>

namespace rbv::wl {

const std::vector<ArrivalMode> &
allArrivalModes()
{
    static const std::vector<ArrivalMode> modes = {
        ArrivalMode::Poisson,
        ArrivalMode::Burst,
        ArrivalMode::Diurnal,
        ArrivalMode::FlashCrowd,
    };
    return modes;
}

ArrivalMode
arrivalModeFromName(const std::string &name)
{
    if (name == "poisson")
        return ArrivalMode::Poisson;
    if (name == "burst")
        return ArrivalMode::Burst;
    if (name == "diurnal")
        return ArrivalMode::Diurnal;
    if (name == "flash" || name == "flash-crowd")
        return ArrivalMode::FlashCrowd;
    throw std::invalid_argument("unknown arrival mode: " + name);
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config,
                               stats::Rng rng_)
    : cfg(config), rng(rng_)
{
    if (cfg.qps <= 0.0)
        throw std::invalid_argument("arrival qps must be positive");
    if (cfg.diurnalAmplitude < 0.0 || cfg.diurnalAmplitude >= 1.0)
        throw std::invalid_argument(
            "diurnal amplitude must be in [0, 1)");
    if (cfg.burstOnFraction <= 0.0 || cfg.burstOnFraction >= 1.0)
        throw std::invalid_argument(
            "burst on-fraction must be in (0, 1)");
    if (cfg.burstMultiplier * cfg.burstOnFraction > 1.0)
        throw std::invalid_argument(
            "burst multiplier times on-fraction must not exceed 1 "
            "(the off-phase rate would be negative)");
}

double
ArrivalProcess::ratePerUs(double t_us) const
{
    const double base = cfg.qps / 1.0e6;
    switch (cfg.mode) {
      case ArrivalMode::Poisson:
        return base;
      case ArrivalMode::Burst: {
        // On/off square wave with the same long-run mean as qps: the
        // on phase runs at mult * qps, the off phase absorbs the rest.
        const double phase =
            std::fmod(t_us, cfg.burstPeriodUs) / cfg.burstPeriodUs;
        if (phase < cfg.burstOnFraction)
            return base * cfg.burstMultiplier;
        const double off =
            (1.0 - cfg.burstMultiplier * cfg.burstOnFraction) /
            (1.0 - cfg.burstOnFraction);
        return base * off;
      }
      case ArrivalMode::Diurnal: {
        const double phase =
            2.0 * M_PI * t_us / cfg.diurnalPeriodUs;
        return base * (1.0 + cfg.diurnalAmplitude * std::sin(phase));
      }
      case ArrivalMode::FlashCrowd: {
        if (t_us >= cfg.flashStartUs &&
            t_us < cfg.flashStartUs + cfg.flashDurationUs)
            return base * cfg.flashMultiplier;
        return base;
      }
    }
    return base;
}

double
ArrivalProcess::peakRatePerUs() const
{
    const double base = cfg.qps / 1.0e6;
    switch (cfg.mode) {
      case ArrivalMode::Poisson:
        return base;
      case ArrivalMode::Burst:
        return base * cfg.burstMultiplier;
      case ArrivalMode::Diurnal:
        return base * (1.0 + cfg.diurnalAmplitude);
      case ArrivalMode::FlashCrowd:
        return base * cfg.flashMultiplier;
    }
    return base;
}

double
ArrivalProcess::nextGapUs()
{
    // Lewis-Shedler thinning: draw candidates at the peak rate and
    // accept each with probability rate(t) / peak. The accepted
    // points form an inhomogeneous Poisson process with the exact
    // rate function, with no per-mode sampling code.
    const double peak = peakRatePerUs();
    const double start = clock;
    for (;;) {
        clock += rng.exponential(1.0 / peak);
        if (rng.uniform() * peak <= ratePerUs(clock))
            return clock - start;
    }
}

} // namespace rbv::wl
