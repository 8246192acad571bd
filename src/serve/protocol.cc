#include "serve/protocol.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "base/fnv1a.h"

namespace eqimpact {
namespace serve {
namespace {

std::string HexDigest(uint64_t digest) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, digest);
  return buffer;
}

void MixString(base::Fnv1a* f, const std::string& text) {
  // Length-prefixed so "ab"+"c" and "a"+"bc" cannot collide.
  f->Mix(text.size());
  for (const char ch : text) {
    f->Mix(static_cast<uint8_t>(ch));
  }
}

}  // namespace

bool ReadCount(const JsonValue* value, size_t* out, bool allow_zero) {
  if (value == nullptr) return true;  // Keep the default.
  if (!value->is_number()) return false;
  const double number = value->as_number();
  if (!std::isfinite(number) || number < 0.0 || number > 1e15 ||
      number != std::floor(number)) {
    return false;
  }
  if (!allow_zero && number == 0.0) return false;
  *out = static_cast<size_t>(number);
  return true;
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadJson: return "bad_json";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownScenario: return "unknown_scenario";
    case ErrorCode::kBadParameter: return "bad_parameter";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kTooManyConnections: return "too_many_connections";
  }
  return "internal";
}

bool ParseJobSpec(const JsonValue& request, JobSpec* spec,
                  ErrorCode* code, std::string* message) {
  *code = ErrorCode::kBadRequest;
  if (!request.is_object()) {
    *message = "request must be a JSON object";
    return false;
  }
  for (const auto& member : request.members()) {
    const std::string& key = member.first;
    if (key != "id" && key != "scenario" && key != "trials" &&
        key != "seed" && key != "bins" && key != "threads" &&
        key != "trial_threads" && key != "point_threads" && key != "set" &&
        key != "sweep") {
      *message = "unknown request field '" + key + "'";
      return false;
    }
  }
  if (const JsonValue* id = request.Find("id")) {
    if (!id->is_string()) {
      *message = "'id' must be a string";
      return false;
    }
    spec->id = id->as_string();
  }
  const JsonValue* scenario = request.Find("scenario");
  if (scenario == nullptr || !scenario->is_string() ||
      scenario->as_string().empty()) {
    *message = "'scenario' (non-empty string) is required";
    return false;
  }
  spec->scenario = scenario->as_string();
  if (!ReadCount(request.Find("trials"), &spec->num_trials,
                 /*allow_zero=*/false)) {
    *message = "'trials' must be a positive integer";
    return false;
  }
  size_t seed = spec->master_seed;
  if (!ReadCount(request.Find("seed"), &seed, /*allow_zero=*/true)) {
    *message = "'seed' must be a non-negative integer";
    return false;
  }
  spec->master_seed = static_cast<uint64_t>(seed);
  if (!ReadCount(request.Find("bins"), &spec->impact_bins,
                 /*allow_zero=*/false)) {
    *message = "'bins' must be a positive integer";
    return false;
  }
  if (!ReadCount(request.Find("threads"), &spec->num_threads,
                 /*allow_zero=*/true) ||
      !ReadCount(request.Find("trial_threads"), &spec->trial_threads,
                 /*allow_zero=*/true) ||
      !ReadCount(request.Find("point_threads"), &spec->point_threads,
                 /*allow_zero=*/true)) {
    *message =
        "'threads'/'trial_threads'/'point_threads' must be non-negative "
        "integers";
    return false;
  }
  if (const JsonValue* set = request.Find("set")) {
    if (!set->is_object()) {
      *message = "'set' must be an object of name: value";
      return false;
    }
    for (const auto& member : set->members()) {
      if (!member.second.is_number()) {
        *message = "'set." + member.first + "' must be a number";
        return false;
      }
      spec->assignments.emplace_back(member.first,
                                     member.second.as_number());
    }
  }
  if (const JsonValue* sweep = request.Find("sweep")) {
    if (!sweep->is_object()) {
      *message = "'sweep' must be an object of name: [values]";
      return false;
    }
    for (const auto& member : sweep->members()) {
      if (!member.second.is_array() || member.second.items().empty()) {
        *message = "'sweep." + member.first +
                   "' must be a non-empty array of numbers";
        return false;
      }
      sim::SweepParameter axis;
      axis.name = member.first;
      for (const JsonValue& item : member.second.items()) {
        if (!item.is_number()) {
          *message = "'sweep." + member.first +
                     "' must be a non-empty array of numbers";
          return false;
        }
        axis.values.push_back(item.as_number());
      }
      spec->sweeps.push_back(std::move(axis));
    }
  }
  return true;
}

uint64_t JobSpecFingerprint(const JobSpec& spec) {
  base::Fnv1a f;
  MixString(&f, spec.scenario);
  f.Mix(spec.num_trials);
  f.Mix(spec.master_seed);
  f.Mix(spec.impact_bins);
  // The thread echoes land in the payload (the CLI prints its flags),
  // so payload identity requires keying on them too — even though the
  // simulated bits are thread-invariant by the determinism contract.
  f.Mix(spec.num_threads);
  f.Mix(spec.trial_threads);
  f.Mix(spec.point_threads);
  f.Mix(spec.assignments.size());
  for (const auto& assignment : spec.assignments) {
    MixString(&f, assignment.first);
    f.MixDouble(assignment.second);
  }
  f.Mix(spec.sweeps.size());
  for (const sim::SweepParameter& axis : spec.sweeps) {
    MixString(&f, axis.name);
    f.Mix(axis.values.size());
    for (const double value : axis.values) f.MixDouble(value);
  }
  return f.hash();
}

std::string AcceptedEventLine(const std::string& id, bool cached,
                              size_t queue_depth) {
  JsonValue event = JsonValue::Object();
  event.Set("id", JsonValue::String(id));
  event.Set("event", JsonValue::String("accepted"));
  event.Set("cached", JsonValue::Bool(cached));
  event.Set("queue_depth",
            JsonValue::Number(static_cast<double>(queue_depth)));
  return event.Dump() + "\n";
}

std::string ProgressEventLine(const std::string& id, const char* unit,
                              size_t index, size_t completed,
                              size_t total) {
  JsonValue event = JsonValue::Object();
  event.Set("id", JsonValue::String(id));
  event.Set("event", JsonValue::String("progress"));
  event.Set("unit", JsonValue::String(unit));
  event.Set("index", JsonValue::Number(static_cast<double>(index)));
  event.Set("completed", JsonValue::Number(static_cast<double>(completed)));
  event.Set("total", JsonValue::Number(static_cast<double>(total)));
  return event.Dump() + "\n";
}

std::string ResultEventLine(const std::string& id, bool cached,
                            uint64_t digest, const std::string& payload) {
  JsonValue event = JsonValue::Object();
  event.Set("id", JsonValue::String(id));
  event.Set("event", JsonValue::String("result"));
  event.Set("cached", JsonValue::Bool(cached));
  event.Set("digest", JsonValue::String(HexDigest(digest)));
  event.Set("payload", JsonValue::String(payload));
  return event.Dump() + "\n";
}

std::string ErrorEventLine(const std::string& id, ErrorCode code,
                           const std::string& message) {
  JsonValue event = JsonValue::Object();
  event.Set("id", JsonValue::String(id));
  event.Set("event", JsonValue::String("error"));
  event.Set("code", JsonValue::String(ErrorCodeName(code)));
  event.Set("message", JsonValue::String(message));
  return event.Dump() + "\n";
}

}  // namespace serve
}  // namespace eqimpact
