#pragma once

/// \file common.hpp
/// Shared pieces of the perfbench program: raw-sample statistics, the
/// operation ledger that feeds `attempted`/`failed`, the in-memory span
/// log of traced runs, the host/build fingerprint and JSON output.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nanoseconds on the steady clock's own epoch — the same time base the
/// library's FlightRecorder stamps its records with.
[[nodiscard]] inline std::uint64_t to_ns(Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
            .count());
}

/// Every per-operation observation of one quantity, kept raw so that
/// quantiles are exact (no histogram buckets).
class Samples {
public:
    void add(double v) {
        values_.push_back(v);
        sorted_ = false;
    }
    [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
    [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

    /// Linear interpolation between closest ranks; 0 when empty.
    [[nodiscard]] double quantile(double q);
    [[nodiscard]] double median() { return quantile(0.5); }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double sum() const;

private:
    std::vector<double> values_;
    bool sorted_ = true;
};

/// Counts attempted operations and failures (shed, lost, erroring or
/// check-violating operations). Thread-safe.
class Ledger {
public:
    void attempt(std::uint64_t n = 1) noexcept {
        attempted_.fetch_add(n, std::memory_order_relaxed);
    }
    /// One failed operation; the first few reasons are kept for the log.
    void fail(const std::string& reason);

    [[nodiscard]] std::uint64_t attempted() const noexcept {
        return attempted_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t failed() const noexcept {
        return failed_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::vector<std::string> reasons() const;

private:
    std::atomic<std::uint64_t> attempted_{0};
    std::atomic<std::uint64_t> failed_{0};
    mutable std::mutex mutex_;
    std::vector<std::string> reasons_;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// One recorded span. Times are steady-clock nanoseconds (to_ns).
struct SpanRec {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t group = 0;   ///< batch / request id shared by related spans
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
};

/// Spans of one thread, kept in memory until the run ends. Not
/// thread-safe: give every recording thread its own log (distinct
/// `lane`s keep the ids of merged logs unique).
class SpanLog {
public:
    explicit SpanLog(std::uint64_t lane = 0) : next_id_((lane << 40) + 1) {}

    std::uint64_t begin(const char* name, std::uint64_t parent, std::uint64_t group);
    void end(std::uint64_t id);
    /// A span recorded elsewhere (the library's flight recorder).
    void add(SpanRec span) { spans_.push_back(std::move(span)); }

    [[nodiscard]] const std::vector<SpanRec>& spans() const noexcept { return spans_; }
    [[nodiscard]] std::vector<SpanRec>& spans() noexcept { return spans_; }

private:
    std::uint64_t next_id_;
    std::vector<SpanRec> spans_;
    std::map<std::uint64_t, std::size_t> open_;  ///< id -> index
};

/// RAII span on a SpanLog (no-op when the log is null).
class Scoped {
public:
    Scoped(SpanLog* log, const char* name, std::uint64_t parent, std::uint64_t group)
        : log_(log), id_(log ? log->begin(name, parent, group) : 0) {}
    ~Scoped() {
        if (log_) log_->end(id_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

private:
    SpanLog* log_;
    std::uint64_t id_;
};

/// Per-name totals over a span set: wall time and self time (duration
/// minus the part of it that the span's children cover; children on
/// several threads are merged as a union of intervals).
struct NameTimes {
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::uint64_t count = 0;
};
[[nodiscard]] std::map<std::string, NameTimes> name_times(
    const std::vector<SpanRec>& spans);

/// Mean wall time of the spans called `name` [ms]; 0 when there are none.
[[nodiscard]] double mean_ms(const std::map<std::string, NameTimes>& times,
                             const std::string& name);

/// Host and build identity stamped into every result. Results with
/// different fingerprints are not comparable.
struct Fingerprint {
    std::string cpu_model;
    unsigned nproc = 0;
    std::string simd_backend;
    std::string compiler;
    std::string build_type;
    std::string source_id;
};
[[nodiscard]] Fingerprint host_fingerprint(const std::string& source_id);

/// Peak resident set size of this process [MiB].
[[nodiscard]] double peak_rss_mb();

/// Shortest round-trip decimal form of `v` (all the digits measured).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
