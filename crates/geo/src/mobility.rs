//! Vehicle and device mobility models.
//!
//! Two models cover the paper's scenarios:
//!
//! * [`Mobility::fixed`] — parked vehicles / roadside units,
//! * [`Mobility::route`] — follows a [`Route`] with an IDM (Intelligent
//!   Driver Model, Treiber et al. 2000) speed profile and optional leader
//!   coupling.
//!
//! Both advance with [`Mobility::step`] on a fixed tick and expose a
//! [`VehicleState`].

use crate::road::Route;
use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// Instantaneous kinematic state of a node.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct VehicleState {
    /// Position in metres.
    pub pos: Vec2,
    /// Scalar speed in m/s (non-negative).
    pub speed: f64,
    /// Heading in radians from +x.
    pub heading: f64,
}

impl VehicleState {
    /// Velocity vector implied by speed and heading.
    pub fn velocity(&self) -> Vec2 {
        Vec2::from_angle(self.heading) * self.speed
    }
}

impl Default for VehicleState {
    fn default() -> Self {
        VehicleState {
            pos: Vec2::ZERO,
            speed: 0.0,
            heading: 0.0,
        }
    }
}

/// Intelligent Driver Model parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IdmParams {
    /// Desired free-flow speed, m/s (capped by lane speed limits).
    pub desired_speed: f64,
    /// Safe time headway, s.
    pub time_headway: f64,
    /// Standstill minimum gap, m.
    pub min_gap: f64,
    /// Maximum acceleration, m/s².
    pub max_accel: f64,
    /// Comfortable deceleration, m/s².
    pub comfort_decel: f64,
    /// Acceleration exponent (4 in the original paper).
    pub exponent: f64,
}

impl Default for IdmParams {
    fn default() -> Self {
        IdmParams {
            desired_speed: 13.9, // 50 km/h urban
            time_headway: 1.5,
            min_gap: 2.0,
            max_accel: 1.4,
            comfort_decel: 2.0,
            exponent: 4.0,
        }
    }
}

/// IDM acceleration for a vehicle at speed `v`; `leader` is `(gap_m,
/// leader_speed)` if a vehicle is ahead on the same lane.
///
/// The returned acceleration is clamped to `[-8, max_accel]` m/s² (an
/// emergency-braking floor keeps the integration stable at tiny gaps).
pub fn idm_acceleration(params: &IdmParams, v: f64, leader: Option<(f64, f64)>) -> f64 {
    let v0 = params.desired_speed.max(0.1);
    let free = params.max_accel * (1.0 - (v / v0).powf(params.exponent));
    let interaction = match leader {
        Some((gap, v_leader)) => {
            let gap = gap.max(0.01);
            let dv = v - v_leader;
            let s_star = params.min_gap
                + (v * params.time_headway
                    + v * dv / (2.0 * (params.max_accel * params.comfort_decel).sqrt()))
                .max(0.0);
            -params.max_accel * (s_star / gap).powi(2)
        }
        None => 0.0,
    };
    (free + interaction).clamp(-8.0, params.max_accel)
}

/// Follows a [`Route`] with an IDM speed profile.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RouteFollower {
    route: Route,
    arc: f64,
    speed: f64,
    idm: IdmParams,
    leader: Option<(f64, f64)>,
    finished: bool,
}

impl RouteFollower {
    /// Starts at the route origin with the given initial speed.
    pub fn new(route: Route, initial_speed: f64, idm: IdmParams) -> Self {
        RouteFollower {
            route,
            arc: 0.0,
            speed: initial_speed.max(0.0),
            idm,
            leader: None,
            finished: false,
        }
    }

    /// Arc length travelled so far, metres.
    pub fn arc_length(&self) -> f64 {
        self.arc
    }

    /// `true` once the route end has been reached.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Informs the follower about the vehicle ahead for the next step:
    /// `(gap_m, leader_speed)`. Cleared after each step.
    pub fn set_leader(&mut self, leader: Option<(f64, f64)>) {
        self.leader = leader;
    }

    /// The route being followed.
    pub fn route(&self) -> &Route {
        &self.route
    }

    fn step(&mut self, dt: f64) {
        if self.finished {
            self.speed = 0.0;
            return;
        }
        let limit = self.route.speed_limit_at(self.arc);
        let mut params = self.idm;
        if limit > 0.0 {
            params.desired_speed = params.desired_speed.min(limit);
        }
        let a = idm_acceleration(&params, self.speed, self.leader.take());
        self.speed = (self.speed + a * dt).max(0.0);
        self.arc += self.speed * dt;
        if self.arc >= self.route.length() {
            self.arc = self.route.length();
            self.finished = true;
            self.speed = 0.0;
        }
    }

    fn state(&self) -> VehicleState {
        let (pos, heading) = self.route.position_at(self.arc);
        VehicleState {
            pos,
            speed: self.speed,
            heading,
        }
    }
}

/// A node's mobility model. Construct with the provided constructors and
/// advance with [`Mobility::step`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Mobility {
    /// Never moves.
    Fixed(VehicleState),
    /// Route following with IDM.
    Route(RouteFollower),
}

impl Mobility {
    /// A stationary node at `pos`.
    pub fn fixed(pos: Vec2) -> Self {
        Mobility::Fixed(VehicleState {
            pos,
            speed: 0.0,
            heading: 0.0,
        })
    }

    /// Route following; see [`RouteFollower`].
    pub fn route(route: Route, initial_speed: f64, idm: IdmParams) -> Self {
        Mobility::Route(RouteFollower::new(route, initial_speed, idm))
    }

    /// Advances the model by `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    pub fn step(&mut self, dt: f64) {
        assert!(dt.is_finite() && dt >= 0.0, "dt must be non-negative");
        match self {
            Mobility::Fixed(_) => {}
            Mobility::Route(f) => f.step(dt),
        }
    }

    /// Current kinematic state.
    pub fn state(&self) -> VehicleState {
        match self {
            Mobility::Fixed(s) => *s,
            Mobility::Route(f) => f.state(),
        }
    }

    /// Current position (shorthand for `state().pos`).
    pub fn pos(&self) -> Vec2 {
        self.state().pos
    }

    /// Mutable access to the route follower, if this is a route model
    /// (for leader coupling).
    pub fn as_route_mut(&mut self) -> Option<&mut RouteFollower> {
        match self {
            Mobility::Route(f) => Some(f),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::RoadNetwork;

    #[test]
    fn fixed_never_moves() {
        let mut m = Mobility::fixed(Vec2::new(1.0, 2.0));
        m.step(10.0);
        assert_eq!(m.pos(), Vec2::new(1.0, 2.0));
        assert_eq!(m.state().speed, 0.0);
    }

    #[test]
    fn idm_free_road_accelerates_to_desired_speed() {
        let p = IdmParams::default();
        let mut v: f64 = 0.0;
        for _ in 0..3000 {
            v += idm_acceleration(&p, v, None) * 0.1;
        }
        assert!((v - p.desired_speed).abs() < 0.1, "converged to {v}");
    }

    #[test]
    fn idm_brakes_behind_slow_leader() {
        let p = IdmParams::default();
        // Fast vehicle 5 m behind a stopped one: strong braking.
        let a = idm_acceleration(&p, 13.9, Some((5.0, 0.0)));
        assert!(a < -3.0, "acceleration was {a}");
        // Far leader at same speed: nearly free-flow.
        let a = idm_acceleration(&p, 10.0, Some((200.0, 10.0)));
        assert!(a > 0.0);
    }

    #[test]
    fn idm_acceleration_is_clamped() {
        let p = IdmParams::default();
        let a = idm_acceleration(&p, 30.0, Some((0.001, 0.0)));
        assert!(a >= -8.0);
        let a = idm_acceleration(&p, 0.0, None);
        assert!(a <= p.max_accel);
    }

    #[test]
    fn route_follower_reaches_the_end_and_stops() {
        let net = RoadNetwork::four_way_intersection(100.0, 13.9);
        let route = net.route(net.approach_node(0), net.exit_node(2)).unwrap();
        let mut m = Mobility::route(route, 10.0, IdmParams::default());
        let mut t = 0.0;
        while !matches!(&m, Mobility::Route(f) if f.is_finished()) && t < 120.0 {
            m.step(0.1);
            t += 0.1;
        }
        assert!(t < 60.0, "should finish a 200 m route well within a minute");
        assert_eq!(m.pos(), Vec2::new(0.0, 100.0));
        assert_eq!(m.state().speed, 0.0);
        // Further steps are inert.
        m.step(5.0);
        assert_eq!(m.pos(), Vec2::new(0.0, 100.0));
    }

    #[test]
    fn route_follower_respects_speed_limit() {
        let net = RoadNetwork::four_way_intersection(500.0, 5.0);
        let route = net.route(net.approach_node(0), net.exit_node(2)).unwrap();
        let mut m = Mobility::route(
            route,
            0.0,
            IdmParams {
                desired_speed: 30.0,
                ..IdmParams::default()
            },
        );
        for _ in 0..400 {
            m.step(0.1);
        }
        assert!(m.state().speed <= 5.0 + 1e-6, "speed {}", m.state().speed);
    }

    #[test]
    fn leader_coupling_slows_the_follower() {
        let net = RoadNetwork::four_way_intersection(500.0, 20.0);
        let route = net.route(net.approach_node(0), net.exit_node(2)).unwrap();
        let mut free = Mobility::route(route.clone(), 10.0, IdmParams::default());
        let mut follower = Mobility::route(route, 10.0, IdmParams::default());
        for _ in 0..100 {
            follower
                .as_route_mut()
                .unwrap()
                .set_leader(Some((8.0, 3.0)));
            follower.step(0.1);
            free.step(0.1);
        }
        let vf = follower.state().speed;
        let vfree = free.state().speed;
        assert!(vf < vfree - 1.0, "follower {vf} vs free {vfree}");
    }

    #[test]
    #[should_panic(expected = "dt must be non-negative")]
    fn negative_dt_panics() {
        let mut m = Mobility::fixed(Vec2::ZERO);
        m.step(-1.0);
    }
}
