#include "viz/bar_chart_svg.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/string_util.hpp"

namespace e2c::viz {

namespace {

const char* kSeriesFills[] = {"#4e9fd1", "#e0a33c", "#b06fc4", "#62b36a",
                              "#5b6ee1", "#d1605e", "#7f8c8d", "#2c9c8f"};

const char* fill_for(std::size_t series) {
  return kSeriesFills[series % (sizeof(kSeriesFills) / sizeof(kSeriesFills[0]))];
}

}  // namespace

std::string render_bar_chart_svg(const BarChart& chart, const BarChartSvgOptions& options) {
  require_input(chart.max_value > 0.0, "bar chart svg: max_value must be > 0");
  require_input(!chart.groups.empty(), "bar chart svg: at least one group required");
  require_input(!chart.series.empty(), "bar chart svg: at least one series required");
  for (const BarSeries& series : chart.series) {
    require_input(series.values.size() == chart.groups.size(),
                  "bar chart svg: series '" + series.name + "' size mismatch");
  }

  const int margin_left = 56;
  const int margin_right = 16;
  const int margin_top = 56;   // title + legend
  const int margin_bottom = 36;
  const double plot_w = options.width_px - margin_left - margin_right;
  const double plot_h = options.height_px - margin_top - margin_bottom;
  const double group_w = plot_w / static_cast<double>(chart.groups.size());
  const double bar_w =
      group_w * 0.8 / static_cast<double>(chart.series.size());

  std::ostringstream svg;
  svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << options.width_px
      << "\" height=\"" << options.height_px
      << "\" font-family=\"sans-serif\" font-size=\"12\">\n";
  svg << "<text x=\"" << margin_left << "\" y=\"20\" font-size=\"15\">" << chart.title
      << "</text>\n";

  // Legend.
  double legend_x = margin_left;
  for (std::size_t s = 0; s < chart.series.size(); ++s) {
    svg << "<rect x=\"" << util::format_fixed(legend_x, 1)
        << "\" y=\"30\" width=\"12\" height=\"12\" fill=\"" << fill_for(s) << "\"/>\n";
    svg << "<text x=\"" << util::format_fixed(legend_x + 16, 1) << "\" y=\"41\">"
        << chart.series[s].name << "</text>\n";
    legend_x += 24.0 + 8.0 * static_cast<double>(chart.series[s].name.size());
  }

  // Y axis with gridlines and labels.
  for (int i = 0; i <= 5; ++i) {
    const double fraction = static_cast<double>(i) / 5.0;
    const double y = margin_top + plot_h * (1.0 - fraction);
    if (options.y_grid && i > 0) {
      svg << "<line x1=\"" << margin_left << "\" y1=\"" << util::format_fixed(y, 1)
          << "\" x2=\"" << options.width_px - margin_right << "\" y2=\""
          << util::format_fixed(y, 1) << "\" stroke=\"#ddd\"/>\n";
    }
    svg << "<text x=\"" << margin_left - 8 << "\" y=\"" << util::format_fixed(y + 4, 1)
        << "\" text-anchor=\"end\" fill=\"#555\">"
        << util::format_fixed(chart.max_value * fraction, 0) << chart.unit << "</text>\n";
  }
  svg << "<line x1=\"" << margin_left << "\" y1=\"" << margin_top << "\" x2=\""
      << margin_left << "\" y2=\"" << margin_top + plot_h
      << "\" stroke=\"#333\"/>\n";
  svg << "<line x1=\"" << margin_left << "\" y1=\""
      << util::format_fixed(margin_top + plot_h, 1) << "\" x2=\""
      << options.width_px - margin_right << "\" y2=\""
      << util::format_fixed(margin_top + plot_h, 1) << "\" stroke=\"#333\"/>\n";

  // Bars + group labels.
  for (std::size_t g = 0; g < chart.groups.size(); ++g) {
    const double group_x =
        margin_left + group_w * static_cast<double>(g) + group_w * 0.1;
    for (std::size_t s = 0; s < chart.series.size(); ++s) {
      const double value =
          std::clamp(chart.series[s].values[g], 0.0, chart.max_value);
      const double h = plot_h * value / chart.max_value;
      const double x = group_x + bar_w * static_cast<double>(s);
      const double y = margin_top + plot_h - h;
      svg << "<rect x=\"" << util::format_fixed(x, 1) << "\" y=\""
          << util::format_fixed(y, 1) << "\" width=\"" << util::format_fixed(bar_w * 0.9, 1)
          << "\" height=\"" << util::format_fixed(h, 1) << "\" fill=\"" << fill_for(s)
          << "\"><title>" << chart.series[s].name << " @ " << chart.groups[g] << ": "
          << util::format_fixed(chart.series[s].values[g], 1) << chart.unit
          << "</title></rect>\n";
    }
    svg << "<text x=\""
        << util::format_fixed(margin_left + group_w * (static_cast<double>(g) + 0.5), 1)
        << "\" y=\"" << options.height_px - 12 << "\" text-anchor=\"middle\">"
        << chart.groups[g] << "</text>\n";
  }
  svg << "</svg>\n";
  return svg.str();
}

void save_bar_chart_svg(const BarChart& chart, const std::string& path,
                        const BarChartSvgOptions& options) {
  util::write_file(path, render_bar_chart_svg(chart, options));
}

}  // namespace e2c::viz
