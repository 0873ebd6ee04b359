#include "platform/power_thermal.h"

#include <algorithm>
#include <cmath>

namespace yukta::platform {

PowerModel::PowerModel(const ClusterConfig& cfg, const DvfsTable& dvfs)
    : cfg_(cfg), dvfs_(dvfs)
{
}

double
PowerModel::clusterPower(const ClusterActivity& act, double temp) const
{
    if (act.cores_on == 0) {
        return 0.0;
    }
    const DvfsTable::OperatingPoint op = dvfs_.operatingPoint(act.freq);
    const double f = op.freq;
    const double v = op.volt;
    const double cores = static_cast<double>(act.cores_on);

    double per_core = cfg_.ceff * act.activity * v * v * f *
                      std::clamp(act.avg_utilization, 0.0, 1.0);
    double dynamic = per_core * cores;

    double scale = v / cfg_.volt_max;
    double thermal = 1.0 + cfg_.leak_tc * (temp - kLeakRefTemp);
    double leakage =
        cfg_.leak_ref * scale * std::max(thermal, 0.2) * cores;

    return dynamic + leakage + cfg_.uncore;
}

ThermalModel::ThermalModel(const ThermalConfig& cfg) : cfg_(cfg)
{
    reset();
}

void
ThermalModel::reset()
{
    t_silicon_ = cfg_.ambient;
    t_heatsink_ = cfg_.ambient;
}

void
ThermalModel::step(double weighted_power, double dt)
{
    // Silicon relaxes toward heatsink + P * R_si; heatsink toward
    // ambient + P * R_hs.
    double target_si = t_heatsink_ + weighted_power * cfg_.r_silicon;
    double target_hs = cfg_.ambient + weighted_power * cfg_.r_heatsink;
    if (dt != last_dt_) {
        last_dt_ = dt;
        a1_ = 1.0 - std::exp(-dt / cfg_.tau_silicon);
        a2_ = 1.0 - std::exp(-dt / cfg_.tau_heatsink);
    }
    t_silicon_ += a1_ * (target_si - t_silicon_);
    t_heatsink_ += a2_ * (target_hs - t_heatsink_);
}

double
ThermalModel::steadyState(double weighted_power) const
{
    return cfg_.ambient +
           weighted_power * (cfg_.r_silicon + cfg_.r_heatsink);
}

}  // namespace yukta::platform
