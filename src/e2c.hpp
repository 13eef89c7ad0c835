/// \file e2c.hpp
/// \brief Umbrella header: the full public API of E2C-Sim++.
///
/// Include this to get the simulator (engine + machines + scheduler), the
/// heterogeneity model (EET), workload generation, reports, visualization
/// and the experiment/education substrates. Individual headers remain
/// includable for finer-grained builds.
#pragma once

#include "core/engine.hpp"            // discrete-event engine
#include "edu/quiz.hpp"               // pre/post scheduling quiz
#include "edu/survey.hpp"             // survey dataset + Fig. 8 pipeline
#include "exp/experiment.hpp"         // policy x intensity sweeps
#include "exp/scenario.hpp"           // classroom scenarios
#include "exp/spec_io.hpp"            // config-file experiment specs
#include "hetero/eet_matrix.hpp"      // EET heterogeneity model
#include "hetero/machine_catalog.hpp" // machine-type presets
#include "hetero/pet_matrix.hpp"      // stochastic execution times (PET)
#include "machines/machine.hpp"       // machine model
#include "mem/model_cache.hpp"        // multi-tenant memory substrate
#include "net/comm_model.hpp"         // communication / data-transfer model
#include "sched/pam.hpp"              // probabilistic pruning policy
#include "reports/metrics.hpp"        // aggregate metrics
#include "reports/report.hpp"         // the four report kinds
#include "sched/registry.hpp"         // policy registry (extension point)
#include "sched/simulation.hpp"       // the simulation itself
#include "util/csv.hpp"               // CSV IO helpers
#include "util/error.hpp"             // exception hierarchy
#include "util/ini.hpp"               // INI config parsing
#include "util/rng.hpp"               // deterministic RNG
#include "util/stats.hpp"             // descriptive statistics
#include "util/string_util.hpp"       // formatting helpers
#include "viz/ascii_view.hpp"         // terminal animation frames
#include "viz/bar_chart.hpp"          // assignment-style bar charts
#include "viz/bar_chart_svg.hpp"      // the same charts as SVG artifacts
#include "viz/controller.hpp"         // play/pause/step/speed controller
#include "viz/gantt_svg.hpp"          // SVG Gantt export
#include "viz/html_report.hpp"        // one-page HTML report
#include "workload/generator.hpp"     // workload generation
#include "workload/trace_stats.hpp"   // workload trace analysis
#include "workload/workload.hpp"      // workload traces
