#include "telemetry/trace_recorder.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "telemetry/trace_json.h"

namespace svagc::telemetry {

std::string TraceRecorder::ToJson() const { return TraceToJson(Snapshot()); }

bool TraceRecorder::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToJson();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && written != json.size()) std::fclose(f);
  return ok;
}

namespace {

struct EnvTrace {
  TraceRecorder* recorder = nullptr;
  std::string path;
};

EnvTrace& EnvTraceState() {
  // Leaked on purpose: the atexit flush below must be able to read the
  // recorder after static destructors may have started running elsewhere.
  static EnvTrace* state = [] {
    auto* s = new EnvTrace;
    if (const char* out = std::getenv("SVAGC_TRACE_OUT");
        out != nullptr && out[0] != '\0') {
      s->recorder = new TraceRecorder;
      s->path = out;
      std::atexit([] { FlushEnvTraceRecorder(); });
    }
    return s;
  }();
  return *state;
}

}  // namespace

TraceRecorder* EnvTraceRecorder() {
  return EnvTraceState().recorder;
}

bool FlushEnvTraceRecorder() {
  const EnvTrace& state = EnvTraceState();
  if (state.recorder == nullptr) return true;
  return state.recorder->WriteFile(state.path);
}

}  // namespace svagc::telemetry
