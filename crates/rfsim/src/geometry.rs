//! 2-D geometry primitives: points, segments, and the elliptical (Fresnel-zone)
//! distance that drives the target-blocking model.

taf_wire::schema! {
    /// A point in the floor plane, coordinates in meters.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Point {
        /// X coordinate (m).
        pub x: f64,
        /// Y coordinate (m).
        pub y: f64,
    }
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Midpoint between this point and another.
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

taf_wire::schema! {
    /// A line segment between two points — in this crate, always a radio link's
    /// transmitter-receiver pair.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Segment {
        /// One endpoint (transmitter).
        pub a: Point,
        /// Other endpoint (receiver).
        pub b: Point,
    }
}

impl Segment {
    /// Creates a segment.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment (the link's line-of-sight distance).
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// Midpoint of the segment.
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(&self.b)
    }

    /// Excess path length of `p` relative to the direct path:
    /// `|p - a| + |p - b| - |a - b|`.
    ///
    /// This is the quantity the radio-tomography literature uses to decide whether
    /// an object at `p` shadows the link: the locus `excess < ε` is an ellipse with
    /// the endpoints as foci. Always non-negative (triangle inequality).
    pub fn excess_path_length(&self, p: &Point) -> f64 {
        (p.distance(&self.a) + p.distance(&self.b) - self.length()).max(0.0)
    }

    /// `true` when `p` lies inside the ellipse with foci at the endpoints and
    /// excess-path parameter `epsilon` (meters).
    pub fn in_fresnel_ellipse(&self, p: &Point, epsilon: f64) -> bool {
        self.excess_path_length(p) <= epsilon
    }

    /// Shortest distance from `p` to the segment.
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        let (dx, dy) = (self.b.x - self.a.x, self.b.y - self.a.y);
        let len_sq = dx * dx + dy * dy;
        if len_sq == 0.0 {
            return p.distance(&self.a);
        }
        let t = (((p.x - self.a.x) * dx + (p.y - self.a.y) * dy) / len_sq).clamp(0.0, 1.0);
        let proj = Point::new(self.a.x + t * dx, self.a.y + t * dy);
        p.distance(&proj)
    }

    /// Normalized projection of `p` onto the segment's axis, clamped to `[0, 1]`:
    /// `0` at endpoint `a`, `1` at endpoint `b`.
    ///
    /// Used to order locations "along a link" for the continuity operator `G`.
    pub fn projection_parameter(&self, p: &Point) -> f64 {
        let (dx, dy) = (self.b.x - self.a.x, self.b.y - self.a.y);
        let len_sq = dx * dx + dy * dy;
        if len_sq == 0.0 {
            return 0.0;
        }
        (((p.x - self.a.x) * dx + (p.y - self.a.y) * dy) / len_sq).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_and_midpoint() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(3.0, 4.0);
        assert!((p.distance(&q) - 5.0).abs() < 1e-12);
        let m = p.midpoint(&q);
        assert_eq!((m.x, m.y), (1.5, 2.0));
    }

    #[test]
    fn segment_length_and_midpoint() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(6.0, 0.0));
        assert_eq!(s.length(), 6.0);
        assert_eq!(s.midpoint(), Point::new(3.0, 0.0));
    }

    #[test]
    fn excess_path_zero_on_the_line() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.excess_path_length(&Point::new(5.0, 0.0)), 0.0);
        assert_eq!(s.excess_path_length(&Point::new(0.0, 0.0)), 0.0);
    }

    #[test]
    fn excess_path_grows_off_axis() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let near = s.excess_path_length(&Point::new(5.0, 0.5));
        let far = s.excess_path_length(&Point::new(5.0, 2.0));
        assert!(near > 0.0);
        assert!(far > near);
    }

    #[test]
    fn excess_path_known_value() {
        // Point directly above one focus: |p-a| = 1, |p-b| = sqrt(101), d = 10.
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let e = s.excess_path_length(&Point::new(0.0, 1.0));
        assert!((e - (1.0 + 101.0_f64.sqrt() - 10.0)).abs() < 1e-12);
    }

    #[test]
    fn fresnel_ellipse_membership() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert!(s.in_fresnel_ellipse(&Point::new(5.0, 0.1), 0.5));
        assert!(!s.in_fresnel_ellipse(&Point::new(5.0, 3.0), 0.5));
    }

    #[test]
    fn distance_to_point_cases() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        // Perpendicular foot inside the segment.
        assert!((s.distance_to_point(&Point::new(5.0, 2.0)) - 2.0).abs() < 1e-12);
        // Beyond endpoint a.
        assert!((s.distance_to_point(&Point::new(-3.0, 4.0)) - 5.0).abs() < 1e-12);
        // Beyond endpoint b.
        assert!((s.distance_to_point(&Point::new(13.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(Point::new(1.0, 1.0), Point::new(1.0, 1.0));
        assert_eq!(s.length(), 0.0);
        assert!((s.distance_to_point(&Point::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
        assert_eq!(s.projection_parameter(&Point::new(9.0, 9.0)), 0.0);
    }

    #[test]
    fn projection_parameter_ordering() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let t1 = s.projection_parameter(&Point::new(2.0, 1.0));
        let t2 = s.projection_parameter(&Point::new(7.0, -1.0));
        assert!(t1 < t2);
        assert_eq!(s.projection_parameter(&Point::new(-5.0, 0.0)), 0.0);
        assert_eq!(s.projection_parameter(&Point::new(50.0, 0.0)), 1.0);
    }
}
