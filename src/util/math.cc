/**
 * @file
 * Numerical helper implementations.
 */

#include "util/math.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace locsim {
namespace util {

LineFit
fitLine(std::span<const double> xs, std::span<const double> ys)
{
    LOCSIM_ASSERT(xs.size() == ys.size(),
                  "fitLine: size mismatch ", xs.size(), " vs ",
                  ys.size());
    LOCSIM_ASSERT(xs.size() >= 2, "fitLine: need at least two points");

    const double n = static_cast<double>(xs.size());
    double sx = 0.0, sy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sx += xs[i];
        sy += ys[i];
    }
    const double mx = sx / n;
    const double my = sy / n;

    double sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    LOCSIM_ASSERT(sxx > 0.0, "fitLine: degenerate x values");

    LineFit fit;
    fit.slope = sxy / sxx;
    fit.intercept = my - fit.slope * mx;
    fit.n = xs.size();
    if (syy > 0.0) {
        const double ss_res = syy - fit.slope * sxy;
        fit.r2 = std::clamp(1.0 - ss_res / syy, 0.0, 1.0);
    } else {
        fit.r2 = 1.0; // perfectly flat data is perfectly fit
    }
    return fit;
}

double
bisect(const std::function<double(double)> &f, double lo, double hi,
       double tol, int max_iter)
{
    LOCSIM_ASSERT(lo <= hi, "bisect: inverted bracket");
    double flo = f(lo);
    double fhi = f(hi);
    if (flo == 0.0)
        return lo;
    if (fhi == 0.0)
        return hi;
    LOCSIM_ASSERT(std::signbit(flo) != std::signbit(fhi),
                  "bisect: f(lo) and f(hi) must have opposite signs: f(",
                  lo, ")=", flo, ", f(", hi, ")=", fhi);

    for (int i = 0; i < max_iter && (hi - lo) > tol; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double fmid = f(mid);
        if (fmid == 0.0)
            return mid;
        if (std::signbit(fmid) == std::signbit(flo)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

int
solveQuadratic(double a, double b, double c, double roots[2])
{
    if (a == 0.0) {
        if (b == 0.0)
            return 0;
        roots[0] = -c / b;
        return 1;
    }
    const double disc = b * b - 4.0 * a * c;
    if (disc < 0.0)
        return 0;
    if (disc == 0.0) {
        roots[0] = -b / (2.0 * a);
        return 1;
    }
    // Numerically stable form: compute the larger-magnitude root first.
    const double sq = std::sqrt(disc);
    const double q = -0.5 * (b + (b >= 0.0 ? sq : -sq));
    double r0 = q / a;
    double r1 = (q != 0.0) ? c / q : -b / a - r0;
    if (r0 > r1)
        std::swap(r0, r1);
    roots[0] = r0;
    roots[1] = r1;
    return 2;
}

} // namespace util
} // namespace locsim
