/**
 * @file
 * Online request behavior predictors (Sec. 5.1).
 *
 * At each sampling moment the system estimates the target metric of
 * the coming execution period. Choices are limited to OS-only
 * information (no basic-block vectors or compiler assistance):
 *
 *  - RequestAveragePredictor: assumes no variation; predicts the
 *    cumulative request average;
 *  - LastValuePredictor: assumes short-term stability; predicts the
 *    previous period's value;
 *  - EwmaPredictor: classic exponentially weighted moving average,
 *    Eq. 4: E_k = alpha * E_{k-1} + (1 - alpha) * O_k;
 *  - VaEwmaPredictor: variable-aging EWMA, Eq. 5: samples of length
 *    t age previous state by alpha^(t / t_hat), so irregular-length
 *    periods (context switches, syscall samples) weigh correctly.
 */

#ifndef RBV_CORE_PREDICT_PREDICTOR_HH
#define RBV_CORE_PREDICT_PREDICTOR_HH

#include <cmath>
#include <memory>
#include <string>

namespace rbv::core {

/**
 * Online predictor interface. observe() feeds one execution period
 * (length t, metric value x); predict() estimates the next period's
 * metric.
 */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /** Feed one observed period. */
    virtual void observe(double t, double x) = 0;

    /** Predict the metric of the coming period. */
    virtual double predict() const = 0;

    /** Forget all state (a new request began). */
    virtual void reset() = 0;

    /** Display name. */
    virtual std::string name() const = 0;

    /** Clone with fresh state. */
    virtual std::unique_ptr<Predictor> clone() const = 0;
};

/** Cumulative request-average predictor. */
class RequestAveragePredictor : public Predictor
{
  public:
    void
    observe(double t, double x) override
    {
        // Corrupted telemetry must not poison the running sums: a
        // single NaN here would stick forever. Non-positive-length
        // windows contribute nothing anyway.
        if (!std::isfinite(t) || !std::isfinite(x) || t <= 0.0)
            return;
        sumT += t;
        sumTX += t * x;
    }

    double
    predict() const override
    {
        return sumT > 0.0 ? sumTX / sumT : 0.0;
    }

    void
    reset() override
    {
        sumT = sumTX = 0.0;
    }

    std::string name() const override { return "Request average"; }

    std::unique_ptr<Predictor>
    clone() const override
    {
        return std::make_unique<RequestAveragePredictor>();
    }

  private:
    double sumT = 0.0;
    double sumTX = 0.0;
};

/** Last-value predictor. */
class LastValuePredictor : public Predictor
{
  public:
    void
    observe(double t, double x) override
    {
        (void)t;
        if (!std::isfinite(x))
            return; // hold the previous estimate on corrupt input
        last = x;
    }

    double predict() const override { return last; }

    void reset() override { last = 0.0; }

    std::string name() const override { return "Last value"; }

    std::unique_ptr<Predictor>
    clone() const override
    {
        return std::make_unique<LastValuePredictor>();
    }

  private:
    double last = 0.0;
};

/** Classic EWMA filter (Eq. 4). */
class EwmaPredictor : public Predictor
{
  public:
    explicit EwmaPredictor(double alpha) : alpha(alpha) {}

    void
    observe(double t, double x) override
    {
        (void)t;
        if (!std::isfinite(x))
            return; // hold the estimate on corrupt input
        if (!seeded) {
            est = x;
            seeded = true;
            return;
        }
        est = alpha * est + (1.0 - alpha) * x;
    }

    double predict() const override { return est; }

    void
    reset() override
    {
        est = 0.0;
        seeded = false;
    }

    std::string
    name() const override
    {
        return "EWMA a=" + fmtAlpha(alpha);
    }

    std::unique_ptr<Predictor>
    clone() const override
    {
        return std::make_unique<EwmaPredictor>(alpha);
    }

    /** Format alpha with one decimal. */
    static std::string fmtAlpha(double a);

  protected:
    double alpha;
    double est = 0.0;
    bool seeded = false;
};

/** Variable-aging EWMA filter (Eq. 5). */
class VaEwmaPredictor : public Predictor
{
  public:
    /**
     * @param alpha  Gain parameter (stability vs. agility).
     * @param unit_t Unit observation length t_hat (same unit as the
     *               t passed to observe(); the paper uses 1 ms).
     */
    VaEwmaPredictor(double alpha, double unit_t)
        : alpha(alpha), unitT(unit_t)
    {
    }

    void
    observe(double t, double x) override
    {
        if (!std::isfinite(x))
            return; // hold the estimate on corrupt input
        if (!seeded) {
            est = x;
            seeded = true;
            return;
        }
        // Aging is a decay factor and must stay within [0, 1]: a
        // non-positive or non-finite window length would otherwise
        // yield alpha^(t/t_hat) > 1 (amplifying history) or NaN.
        double aging = std::isfinite(t) && t > 0.0 && unitT > 0.0
                           ? std::pow(alpha, t / unitT)
                           : alpha;
        if (!(aging >= 0.0))
            aging = 0.0;
        else if (aging > 1.0)
            aging = 1.0;
        est = aging * est + (1.0 - aging) * x;
    }

    double predict() const override { return est; }

    void
    reset() override
    {
        est = 0.0;
        seeded = false;
    }

    std::string
    name() const override
    {
        return "vaEWMA a=" + EwmaPredictor::fmtAlpha(alpha);
    }

    std::unique_ptr<Predictor>
    clone() const override
    {
        return std::make_unique<VaEwmaPredictor>(alpha, unitT);
    }

  private:
    double alpha;
    double unitT;
    double est = 0.0;
    bool seeded = false;
};

} // namespace rbv::core

#endif // RBV_CORE_PREDICT_PREDICTOR_HH
