// Latency models for the control channel, FlowMod installation and link
// traversal. A LatencyModel is a tagged value so experiment configs stay
// plain data; sample() draws a Duration from the model.
//
// The lognormal and bounded-Pareto models reflect the OVS / hardware
// flow-table update behaviour reported by Kuzniar et al. (PAM'15), which the
// paper cites as the reason multi-vendor deployments see even wilder
// asynchrony than Mininet does (footnote 2).
#pragma once

#include <string>

#include "tsu/sim/time.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::sim {

enum class LatencyKind : unsigned char {
  kConstant,
  kUniform,
  kExponential,
  kLognormal,
  kPareto,
};

struct LatencyModel {
  LatencyKind kind = LatencyKind::kConstant;
  // Parameter meaning by kind:
  //   kConstant:    a = value (ns)
  //   kUniform:     a = lo (ns), b = hi (ns)
  //   kExponential: a = mean (ns)
  //   kLognormal:   a = median (ns), b = sigma
  //   kPareto:      a = lo (ns), b = hi (ns), c = alpha
  double a = 0;
  double b = 0;
  double c = 0;

  Duration sample(Rng& rng) const;
  // Expected value (exact per model); used for analytic sanity checks.
  double mean() const;
  std::string to_string() const;

  static LatencyModel constant(Duration value);
  static LatencyModel uniform(Duration lo, Duration hi);
  static LatencyModel exponential(Duration mean);
  static LatencyModel lognormal(Duration median, double sigma);
  static LatencyModel pareto(Duration lo, Duration hi, double alpha);
};

}  // namespace tsu::sim
