#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <unordered_map>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/simd.hpp"

namespace perfbench {

double Samples::quantile(double q) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(values_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::sum() const {
    double s = 0.0;
    for (const double v : values_) s += v;
    return s;
}

double Samples::mean() const {
    return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

void Ledger::fail(const std::string& reason) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (reasons_.size() < 20) reasons_.push_back(reason);
}

std::vector<std::string> Ledger::reasons() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reasons_;
}

std::uint64_t SpanLog::begin(const char* name, std::uint64_t parent,
                             std::uint64_t group) {
    const std::uint64_t id = next_id_++;
    open_[id] = spans_.size();
    spans_.push_back(SpanRec{name, id, parent, group, to_ns(Clock::now()), 0});
    return id;
}

void SpanLog::end(std::uint64_t id) {
    const auto it = open_.find(id);
    if (it == open_.end()) return;
    spans_[it->second].end_ns = to_ns(Clock::now());
    open_.erase(it);
}

std::map<std::string, NameTimes> name_times(const std::vector<SpanRec>& spans) {
    std::unordered_map<std::uint64_t, std::vector<const SpanRec*>> children;
    for (const SpanRec& s : spans) {
        if (s.parent != 0) children[s.parent].push_back(&s);
    }
    std::map<std::string, NameTimes> out;
    for (const SpanRec& s : spans) {
        if (s.end_ns < s.start_ns) continue;
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        double covered = 0.0;
        const auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
            for (const SpanRec* c : it->second) {
                const std::uint64_t a = std::max(c->start_ns, s.start_ns);
                const std::uint64_t b = std::min(c->end_ns, s.end_ns);
                if (b > a) iv.emplace_back(a, b);
            }
            std::sort(iv.begin(), iv.end());
            std::uint64_t cur_a = 0, cur_b = 0;
            for (const auto& [a, b] : iv) {
                if (cur_b == 0 || a > cur_b) {
                    covered += static_cast<double>(cur_b - cur_a);
                    cur_a = a;
                    cur_b = b;
                } else {
                    cur_b = std::max(cur_b, b);
                }
            }
            covered += static_cast<double>(cur_b - cur_a);
        }
        NameTimes& t = out[s.name];
        t.total_ns += dur;
        t.self_ns += std::max(0.0, dur - covered);
        ++t.count;
    }
    return out;
}

double mean_ms(const std::map<std::string, NameTimes>& times, const std::string& name) {
    const auto it = times.find(name);
    return it == times.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.count) * 1e-6;
}

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char text[sizeof regs + 1] = {};
        std::memcpy(text, regs, sizeof regs);
        std::string s(text);
        const auto first = s.find_first_not_of(' ');
        const auto last = s.find_last_not_of(' ');
        return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

}  // namespace

Fingerprint host_fingerprint(const std::string& source_id) {
    Fingerprint f;
    f.cpu_model = cpu_brand();
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    f.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
    f.simd_backend = fxg::util::simd::backend_name();
#if defined(__clang__)
    f.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    f.compiler = std::string("gcc ") + __VERSION__;
#else
    f.compiler = "unknown";
#endif
    f.build_type = FXG_BENCH_BUILD_TYPE;
    f.source_id = source_id;
    return f;
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char esc[8];
                    std::snprintf(esc, sizeof esc, "\\u%04x", c);
                    out += esc;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

}  // namespace perfbench
