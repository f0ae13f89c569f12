/**
 * @file
 * Small numerical helpers shared across the library: least-squares
 * line fitting (used to extract application message curves from
 * simulation measurements), root bracketing/bisection (used by the
 * combined-model solver), and a stable quadratic solver.
 */

#ifndef LOCSIM_UTIL_MATH_HH_
#define LOCSIM_UTIL_MATH_HH_

#include <cstddef>
#include <functional>
#include <span>

namespace locsim {
namespace util {

/** Result of an ordinary least-squares line fit y = slope*x + intercept. */
struct LineFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination in [0, 1]. */
    double r2 = 0.0;
    std::size_t n = 0;
};

/**
 * Fit a least-squares line through (x[i], y[i]).
 *
 * @pre xs.size() == ys.size() and xs.size() >= 2 with non-degenerate x.
 */
LineFit fitLine(std::span<const double> xs, std::span<const double> ys);

/**
 * Find a root of f on [lo, hi] by bisection.
 *
 * @pre f(lo) and f(hi) have opposite signs (or one of them is zero).
 * @param tol absolute tolerance on the bracket width.
 * @return the midpoint of the final bracket.
 */
double bisect(const std::function<double(double)> &f, double lo,
              double hi, double tol = 1e-12, int max_iter = 200);

/**
 * Solve the quadratic a*x^2 + b*x + c = 0 and return the number of
 * real roots (0, 1, or 2), storing them in ascending order.
 */
int solveQuadratic(double a, double b, double c, double roots[2]);

} // namespace util
} // namespace locsim

#endif // LOCSIM_UTIL_MATH_HH_
