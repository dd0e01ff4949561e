#include "trace.h"

#include <fstream>

namespace perfbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kParse: return "serve.parse";
    case SpanName::kCache: return "serve.cache";
    case SpanName::kFork: return "tree.fork";
    case SpanName::kSolve: return "solver.solve";
    case SpanName::kRender: return "serve.render";
    case SpanName::kCoreCold: return "core.cold";
  }
  return "?";
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "span,parent,request,name,start_ns,end_ns,count\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.request << ',' << span_name(s.name)
        << ',' << s.start_ns << ',' << s.end_ns << ',' << s.count << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
