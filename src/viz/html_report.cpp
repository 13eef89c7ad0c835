#include "viz/html_report.hpp"

#include <sstream>

#include "reports/report.hpp"
#include "util/file_io.hpp"
#include "viz/gantt_svg.hpp"

namespace e2c::viz {

namespace {

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out.push_back(c); break;
    }
  }
  return out;
}

void emit_table(std::ostringstream& out, const std::string& caption,
                const std::vector<std::vector<std::string>>& rows) {
  out << "<h2>" << html_escape(caption) << "</h2>\n<table>\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const char* cell = r == 0 ? "th" : "td";
    out << "<tr>";
    for (const std::string& field : rows[r]) {
      out << "<" << cell << ">" << html_escape(field) << "</" << cell << ">";
    }
    out << "</tr>\n";
  }
  out << "</table>\n";
}

}  // namespace

std::string render_html_report(const sched::Simulation& simulation) {
  std::ostringstream out;
  out << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
      << "<title>E2C report — " << html_escape(simulation.policy().name())
      << "</title>\n<style>\n"
      << "body{font-family:sans-serif;margin:2em;max-width:1100px}\n"
      << "table{border-collapse:collapse;margin:1em 0}\n"
      << "th,td{border:1px solid #bbb;padding:3px 9px;text-align:left;font-size:13px}\n"
      << "th{background:#eee}\n</style></head><body>\n"
      << "<h1>E2C simulation report</h1>\n";

  emit_table(out, "Summary Report", reports::summary_report(simulation));
  emit_table(out, "Machine Report", reports::machine_report(simulation));
  emit_table(out, "Missed Tasks", reports::missed_report(simulation));
  out << "<h2>Execution Gantt</h2>\n" << render_gantt_svg(simulation);
  out << "</body></html>\n";
  return out.str();
}

void save_html_report(const sched::Simulation& simulation, const std::string& path) {
  util::write_file(path, render_html_report(simulation));
}

}  // namespace e2c::viz
