#include "report.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    return;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

bool Report::has_metric(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Report::fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  failures_.push_back(why);
}

void Report::stamp(const std::string& key, const std::string& json) {
  for (auto& [k, v] : stamps_) {
    if (k == key) {
      v = json;
      return;
    }
  }
  stamps_.emplace_back(key, json);
}

std::vector<Percentile> tail_percentiles(std::vector<double> samples) {
  return percentiles(std::move(samples), {0.5, 0.9, 0.99, 0.999});
}

std::string tail_json(const std::vector<Percentile>& tail) {
  std::string out = "{";
  const char* names[] = {"p50", "p90", "p99", "p99.9"};
  for (std::size_t i = 0; i < tail.size() && i < 4; ++i) {
    if (i > 0) out += ",";
    out += json_string(names[i]) + ":{\"value\":" + json_number(tail[i].value) +
           ",\"samples\":" + std::to_string(tail[i].samples) +
           ",\"beyond\":" + std::to_string(tail[i].beyond) + "}";
  }
  return out + "}";
}

void Report::stamp_tail(const std::string& key,
                        const std::vector<double>& samples) {
  stamp(key, tail_json(tail_percentiles(samples)));
}

void Report::print_stamp(std::FILE* out) const {
  std::string line = "{\"report\":{";
  for (std::size_t i = 0; i < stamps_.size(); ++i) {
    if (i > 0) line += ",";
    line += json_string(stamps_[i].first) + ":" + stamps_[i].second;
  }
  std::fprintf(out, "%s}}\n", line.c_str());
}

bool Report::print_result(std::FILE* out,
                          const std::vector<std::string>& names) {
  for (const std::string& name : names)
    if (!has_metric(name)) fail("metric " + name + " was not measured");
  const bool ok = correct();
  std::string line = std::string("{\"correct\": ") + (ok ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  if (ok) {
    bool first = true;
    for (const std::string& name : names) {
      const auto it =
          std::find_if(metrics_.begin(), metrics_.end(),
                       [&](const Metric& m) { return m.name == name; });
      if (!first) line += ", ";
      first = false;
      line += json_string(name) + ": {\"value\": " + json_number(it->value) +
              ", \"unit\": " + json_string(it->unit) + "}";
    }
  }
  std::fprintf(out, "%s}}\n", line.c_str());
  std::fflush(out);
  return ok;
}

}  // namespace perfbench
