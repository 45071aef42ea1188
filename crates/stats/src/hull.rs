//! Lower convex hulls of 2-D point sets.
//!
//! Paper Fig. 2 plots 42 ImageNet networks in (inference latency, top-5
//! error) space and draws the *lower convex hull*: the curve of optimal
//! latency/accuracy trade-offs. Networks above the hull are dominated.

use serde::{Deserialize, Serialize};

/// A 2-D point with an opaque payload index.
///
/// `idx` lets callers map hull members back to the original
/// collection (e.g. a model id).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point2 {
    /// x coordinate (for Fig. 2: latency in seconds).
    pub x: f64,
    /// y coordinate (for Fig. 2: top-5 error in percent).
    pub y: f64,
    /// Caller-defined index into the source collection.
    pub idx: usize,
}

impl Point2 {
    /// Creates a point.
    pub fn new(x: f64, y: f64, idx: usize) -> Self {
        Point2 { x, y, idx }
    }
}

/// Cross product `(b − a) × (c − a)`; positive when `c` lies to the left of
/// the directed line `a → b`.
fn cross(a: Point2, b: Point2, c: Point2) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Computes the lower convex hull of a point set, sorted by `x`.
///
/// The result is the chain of points such that every input point lies on or
/// above every hull segment. Duplicate x values keep only the lowest y.
/// Non-finite points are dropped. Returns an empty vector for an empty
/// input.
///
/// # Examples
///
/// ```
/// use alert_stats::hull::{lower_convex_hull, Point2};
///
/// let pts = vec![
///     Point2::new(0.0, 3.0, 0),
///     Point2::new(1.0, 1.0, 1),
///     Point2::new(2.0, 2.5, 2), // above the 0-1-3 chain: excluded
///     Point2::new(3.0, 0.5, 3),
/// ];
/// let hull = lower_convex_hull(&pts);
/// let ids: Vec<usize> = hull.iter().map(|p| p.idx).collect();
/// assert_eq!(ids, vec![0, 1, 3]);
/// ```
pub fn lower_convex_hull(points: &[Point2]) -> Vec<Point2> {
    let mut pts: Vec<Point2> = points
        .iter()
        .copied()
        .filter(|p| p.x.is_finite() && p.y.is_finite())
        .collect();
    if pts.len() <= 1 {
        return pts;
    }
    pts.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    // Collapse duplicate x, keeping the lowest y (sorted order guarantees
    // the first of each x-run is lowest).
    pts.dedup_by(|next, kept| (next.x - kept.x).abs() < f64::EPSILON * kept.x.abs().max(1.0));

    let mut hull: Vec<Point2> = Vec::with_capacity(pts.len());
    for p in pts {
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            // For a *lower* hull we need every turn to be counter-clockwise;
            // pop `b` while the chain a→b→p does not turn left.
            if cross(a, b, p) <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    hull
}

/// Returns `true` if point `p` lies on or above the polyline `hull`
/// (interpreted as a lower bound curve), within tolerance `eps`.
///
/// Points outside the hull's x-range are considered above it (the hull
/// asserts nothing there).
pub fn above_hull(hull: &[Point2], p: Point2, eps: f64) -> bool {
    if hull.len() < 2 {
        return true;
    }
    let (Some(first), Some(last)) = (hull.first(), hull.last()) else {
        return true;
    };
    if p.x < first.x || p.x > last.x {
        return true;
    }
    for w in hull.windows(2) {
        let &[a, b] = w else { continue };
        if p.x >= a.x && p.x <= b.x {
            let t = if b.x > a.x {
                (p.x - a.x) / (b.x - a.x)
            } else {
                0.0
            };
            let y_line = a.y + t * (b.y - a.y);
            return p.y >= y_line - eps;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point2> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point2::new(x, y, i))
            .collect()
    }

    #[test]
    fn hull_of_empty_and_singleton() {
        assert!(lower_convex_hull(&[]).is_empty());
        let one = pts(&[(1.0, 2.0)]);
        assert_eq!(lower_convex_hull(&one).len(), 1);
    }

    #[test]
    fn hull_excludes_dominated_interior() {
        let p = pts(&[(0.0, 10.0), (1.0, 4.0), (2.0, 6.0), (3.0, 1.0), (4.0, 0.9)]);
        let hull = lower_convex_hull(&p);
        let ids: Vec<usize> = hull.iter().map(|q| q.idx).collect();
        // (2,6) is above the chain; (1,4) is above segment (0,10)-(3,1)?
        // Line from (0,10) to (3,1): at x=1 y=7 → (1,4) is below, so it stays.
        assert!(ids.contains(&0));
        assert!(ids.contains(&1));
        assert!(!ids.contains(&2));
        assert!(ids.contains(&3));
        assert!(ids.contains(&4));
    }

    #[test]
    fn all_points_above_hull() {
        let p = pts(&[
            (0.015, 25.0),
            (0.03, 12.0),
            (0.05, 9.0),
            (0.08, 8.5),
            (0.1, 6.0),
            (0.18, 4.2),
            (0.27, 3.5),
            (0.06, 20.0),
            (0.12, 9.0),
        ]);
        let hull = lower_convex_hull(&p);
        for &q in &p {
            assert!(above_hull(&hull, q, 1e-9), "{q:?} below hull");
        }
    }

    #[test]
    fn hull_is_convex() {
        let p = pts(&[
            (0.0, 5.0),
            (1.0, 3.0),
            (2.0, 2.0),
            (3.0, 1.5),
            (4.0, 1.4),
            (5.0, 1.39),
        ]);
        let hull = lower_convex_hull(&p);
        for w in hull.windows(3) {
            assert!(
                cross(w[0], w[1], w[2]) > 0.0,
                "hull must turn strictly left at every vertex"
            );
        }
    }

    #[test]
    fn duplicate_x_keeps_lowest_y() {
        let p = pts(&[(1.0, 5.0), (1.0, 2.0), (2.0, 1.0)]);
        let hull = lower_convex_hull(&p);
        assert_eq!(hull.len(), 2);
        assert_eq!(hull[0].y, 2.0);
    }

    #[test]
    fn non_finite_points_dropped() {
        let p = vec![
            Point2::new(f64::NAN, 1.0, 0),
            Point2::new(1.0, 1.0, 1),
            Point2::new(2.0, f64::INFINITY, 2),
        ];
        let hull = lower_convex_hull(&p);
        assert_eq!(hull.len(), 1);
        assert_eq!(hull[0].idx, 1);
    }
}
