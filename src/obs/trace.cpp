#include "obs/trace.hpp"

#include <ostream>

namespace datastage::obs {

RunTrace::Event::Event(RunTrace& trace, std::string_view type)
    : trace_(&trace), line_("{") {
  json_field(line_, "seq", trace.next_seq_++);
  json_field(line_, "type", type);
}

RunTrace::Event::~Event() {
  line_ += '}';
  trace_->write_line(line_);
}

void RunTrace::write_line(const std::string& line) {
  *os_ << line << '\n';
  ++events_written_;
}

}  // namespace datastage::obs
