#include "platform/dvfs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace yukta::platform {

DvfsTable::DvfsTable(const ClusterConfig& cfg)
{
    if (cfg.freq_max <= cfg.freq_min || cfg.freq_step <= 0.0) {
        throw std::invalid_argument("DvfsTable: bad frequency range");
    }
    for (double f = cfg.freq_min; f <= cfg.freq_max + 1e-9;
         f += cfg.freq_step) {
        freqs_.push_back(std::round(f * 10.0) / 10.0);
    }
    // Linear V/f interpolation across the grid.
    double span = freqs_.back() - freqs_.front();
    volts_.reserve(freqs_.size());
    for (double fq : freqs_) {
        double frac = span > 0.0 ? (fq - freqs_.front()) / span : 0.0;
        volts_.push_back(cfg.volt_min +
                         frac * (cfg.volt_max - cfg.volt_min));
    }
}

std::size_t
DvfsTable::indexOf(double f) const
{
    // Closest grid point.
    std::size_t best = 0;
    double best_d = 1e300;
    for (std::size_t i = 0; i < freqs_.size(); ++i) {
        double d = std::abs(freqs_[i] - f);
        if (d < best_d) {
            best_d = d;
            best = i;
        }
    }
    return best;
}

double
DvfsTable::quantize(double f) const
{
    return freqs_[indexOf(f)];
}

DvfsTable::OperatingPoint
DvfsTable::operatingPoint(double f) const
{
    std::size_t i = indexOf(f);
    return {freqs_[i], volts_[i]};
}

double
DvfsTable::stepDown(double f, std::size_t levels) const
{
    std::size_t i = indexOf(f);
    return freqs_[i >= levels ? i - levels : 0];
}

double
DvfsTable::stepUp(double f, std::size_t levels) const
{
    std::size_t i = indexOf(f) + levels;
    return freqs_[std::min(i, freqs_.size() - 1)];
}

}  // namespace yukta::platform
