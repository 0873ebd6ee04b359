#ifndef YUKTA_PLATFORM_DVFS_H_
#define YUKTA_PLATFORM_DVFS_H_

/**
 * @file
 * Per-cluster DVFS: the frequency grid (like cpufreq's available
 * frequencies), voltage-frequency curve, and quantization helpers.
 */

#include <cstddef>
#include <vector>

#include "platform/config.h"

namespace yukta::platform {

/** DVFS table for one cluster. */
class DvfsTable
{
  public:
    /** One grid level: its frequency and that frequency's voltage. */
    struct OperatingPoint
    {
        double freq = 0.0;  ///< GHz, on the grid.
        double volt = 0.0;  ///< V.
    };

    /** Builds the table from @p cfg (linear V/f interpolation). */
    explicit DvfsTable(const ClusterConfig& cfg);

    /** @return all allowed frequencies in GHz, ascending. */
    const std::vector<double>& frequencies() const { return freqs_; }

    /** @return number of allowed operating points. */
    std::size_t numLevels() const { return freqs_.size(); }

    /** @return the closest allowed frequency to @p f (clamped). */
    double quantize(double f) const;

    /**
     * @return the closest grid level to @p f (quantize(f)) with its
     * voltage, from a single grid lookup.
     */
    OperatingPoint operatingPoint(double f) const;

    /** @return the next level down from @p f, or the floor. */
    double stepDown(double f, std::size_t levels = 1) const;

    /** @return the next level up from @p f, or the ceiling. */
    double stepUp(double f, std::size_t levels = 1) const;

    /** Lowest / highest allowed frequency (GHz). */
    double minFreq() const { return freqs_.front(); }
    double maxFreq() const { return freqs_.back(); }

  private:
    std::vector<double> freqs_;
    std::vector<double> volts_;  ///< Voltage of each grid level.

    std::size_t indexOf(double f) const;
};

}  // namespace yukta::platform

#endif  // YUKTA_PLATFORM_DVFS_H_
