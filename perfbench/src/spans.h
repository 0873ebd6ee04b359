#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

/**
 * @file
 * In-memory wall-clock spans for the benchmark driver. Each span has a
 * name, a start and end (seconds since the log was created) and the
 * index of its enclosing span. Spans stay in memory; the traced run
 * writes them once, at the end, as JSON lines.
 */

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <iomanip>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    explicit SpanLog(std::string workload)
        : workload_(std::move(workload)), origin_(Clock::now())
    {
    }

    /** Opens a span nested in the innermost open one; returns its id. */
    int open(const std::string& name)
    {
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, now(), -1.0, parent});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    /** Closes span @p id (the innermost open one); returns its length. */
    double close(int id)
    {
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.end = now();
        open_.erase(std::find(open_.begin(), open_.end(), id));
        return s.end - s.start;
    }

    /** @return summed length of every closed span named @p name. */
    double total(const std::string& name) const
    {
        double sum = 0.0;
        for (const Span& s : spans_) {
            if (s.name == name && s.end >= 0.0) {
                sum += s.end - s.start;
            }
        }
        return sum;
    }

    /**
     * Writes every span as one JSON line, with its self time (length
     * minus the time its child spans cover); false when unwritable.
     */
    bool write(const std::string& path) const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            self[i] += s.end - s.start;
            if (s.parent >= 0) {
                self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
            }
        }
        std::ofstream os(path);
        os << std::setprecision(9);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            os << "{\"id\":" << i << ",\"name\":\"" << s.name
               << "\",\"start\":" << s.start << ",\"end\":" << s.end
               << ",\"self\":" << self[i] << ",\"parent\":" << s.parent
               << ",\"workload\":\"" << workload_ << "\"}\n";
        }
        return static_cast<bool>(os);
    }

  private:
    using Clock = std::chrono::steady_clock;

    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    std::string workload_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: open on construction, close on destruction or stop(). */
class Scope
{
  public:
    Scope(SpanLog& log, const std::string& name)
        : log_(log), id_(log.open(name))
    {
    }
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /** Closes the span (once) and returns its length in seconds. */
    double stop()
    {
        if (!closed_) {
            seconds_ = log_.close(id_);
            closed_ = true;
        }
        return seconds_;
    }

  private:
    SpanLog& log_;
    int id_;
    bool closed_ = false;
    double seconds_ = 0.0;
};

/** Runs @p f inside a span named @p name; returns its seconds. */
template <class F>
double
timed(SpanLog& log, const std::string& name, F&& f)
{
    Scope scope(log, name);
    f();
    return scope.stop();
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
