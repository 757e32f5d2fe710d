#include "trace.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>
#include <tuple>
#include <unordered_map>

namespace perfbench {

std::uint64_t
Tracer::add(Span span)
{
    if (span.id == 0)
        span.id = next_id();
    const std::uint64_t id = span.id;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return id;
}

void
Tracer::add_all(std::vector<Span> spans)
{
    for (auto& span : spans)
        if (span.id == 0)
            span.id = next_id();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

int
Tracer::thread_index()
{
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
}

std::int64_t
union_length_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t cur_start = 0, cur_end = 0;
    bool open = false;
    for (const auto& [start, end] : intervals) {
        if (end <= start)
            continue;
        if (!open || start > cur_end) {
            if (open)
                total += cur_end - cur_start;
            cur_start = start;
            cur_end = end;
            open = true;
        } else {
            cur_end = std::max(cur_end, end);
        }
    }
    if (open)
        total += cur_end - cur_start;
    return total;
}

void
link_parents(std::vector<Span>& spans)
{
    // Candidates by (level, request, leaf).
    std::map<std::tuple<int, std::uint64_t, int>, std::vector<std::size_t>>
        by_key;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_key[{static_cast<int>(spans[i].level), spans[i].request,
                spans[i].leaf}]
            .push_back(i);

    for (auto& child : spans) {
        if (child.parent != 0 || child.level == Level::Request)
            continue;
        const int up = static_cast<int>(child.level) - 1;
        // Most specific key first: same request and leaf, then the same
        // request at any leaf, then a span shared by several requests.
        const std::tuple<int, std::uint64_t, int> keys[] = {
            {up, child.request, child.leaf},
            {up, child.request, -1},
            {up, 0, -1},
        };
        for (const auto& key : keys) {
            const auto it = by_key.find(key);
            if (it == by_key.end())
                continue;
            for (const std::size_t k : it->second) {
                const Span& cand = spans[k];
                if (cand.start_ns <= child.start_ns &&
                    child.end_ns <= cand.end_ns) {
                    child.parent = cand.id;
                    break;
                }
            }
            if (child.parent != 0)
                break;
        }
    }
}

std::vector<std::int64_t>
self_times_ns(const std::vector<Span>& spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
        spans.size());
    for (const auto& child : spans) {
        const auto it = index.find(child.parent);
        if (child.parent == 0 || it == index.end())
            continue;
        const Span& parent = spans[it->second];
        covered[it->second].push_back(
            {std::max(child.start_ns, parent.start_ns),
             std::min(child.end_ns, parent.end_ns)});
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].duration_ns() - union_length_ns(covered[i]);
    return self;
}

bool
write_trace_events(const std::vector<Span>& spans, const std::string& path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const auto self = self_times_ns(spans);
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
            << "\"tid\":" << s.thread << ",\"ts\":"
            << 1e-3 * static_cast<double>(s.start_ns)
            << ",\"dur\":" << 1e-3 * static_cast<double>(s.duration_ns())
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << ",\"leaf\":" << s.leaf
            << ",\"self_us\":" << 1e-3 * static_cast<double>(self[i])
            << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
