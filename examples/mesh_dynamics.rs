//! Model 1 up close: watch a mesh form, reshape and dissolve as vehicles
//! cross an intersection.
//!
//! Runs the mesh + radio + mobility layers without the orchestration on
//! top, printing the ego's mesh view once per second.
//!
//! ```sh
//! cargo run --example mesh_dynamics
//! ```

use airdnd::geo::{IdmParams, Mobility, RoadNetwork, World};
use airdnd::mesh::{MeshAction, MeshConfig, MeshDescriptor, MeshMsg, MeshNode, NodeAdvert};
use airdnd::radio::{DeliveryOutcome, NodeAddr, RadioMedium};
use airdnd::sim::{SimRng, SimTime};

fn main() {
    let net = RoadNetwork::four_way_intersection(250.0, 13.9);
    let world = World::corner_buildings(12.0, 40.0);
    let mut medium = RadioMedium::v2v(&world, SimRng::seed_from(9));

    // Six vehicles: ego from the south, the rest staggered on other arms.
    let mut rng = SimRng::seed_from(1);
    let mut nodes: Vec<MeshNode> = Vec::new();
    let mut mobility: Vec<Mobility> = Vec::new();
    for i in 0..6u64 {
        let from = (i as usize) % 4;
        let to = (from + 1 + (i as usize) % 3) % 4;
        let route = net
            .route(net.approach_node(from), net.exit_node(to))
            .expect("arms connect");
        let mut m = Mobility::route(route, 8.0 + i as f64, IdmParams::default());
        m.step((i as f64) * 2.0); // stagger entries
        let addr = NodeAddr::new(i + 1);
        medium.set_position(addr, m.pos());
        nodes.push(MeshNode::new(
            addr,
            MeshConfig::default(),
            NodeAdvert::closed(),
        ));
        mobility.push(m);
        let _ = rng.next_f64();
    }

    let tick = 0.1;
    let mut inboxes: Vec<Vec<(NodeAddr, MeshMsg)>> = vec![Vec::new(); nodes.len()];
    for step in 0..400u64 {
        let now = SimTime::from_millis(step * 100);
        // Move and update the radio map.
        for (i, m) in mobility.iter_mut().enumerate() {
            m.step(tick);
            let state = m.state();
            medium.set_position(nodes[i].addr(), state.pos);
            nodes[i].set_kinematics(state.pos, state.velocity());
        }
        // Deliver last tick's frames.
        let mut outgoing: Vec<(usize, MeshAction)> = Vec::new();
        for (i, inbox) in inboxes.iter_mut().enumerate() {
            for (from, msg) in inbox.drain(..) {
                for action in nodes[i].on_message(now, from, msg) {
                    outgoing.push((i, action));
                }
            }
        }
        // Timers.
        for (i, node) in nodes.iter_mut().enumerate() {
            for action in node.on_timer(now) {
                outgoing.push((i, action));
            }
        }
        // Route through the medium.
        for (src, action) in outgoing {
            let src_addr = nodes[src].addr();
            match action {
                MeshAction::Broadcast(msg) => {
                    let (deliveries, _) = medium.broadcast(now, src_addr, msg.wire_size_bytes());
                    for d in deliveries {
                        let idx = (d.to.raw() - 1) as usize;
                        inboxes[idx].push((src_addr, msg.clone()));
                    }
                }
                MeshAction::Unicast(to, msg) => {
                    let (outcome, _) = medium.unicast(now, src_addr, to, msg.wire_size_bytes());
                    if matches!(outcome, DeliveryOutcome::Delivered { .. }) {
                        let idx = (to.raw() - 1) as usize;
                        inboxes[idx].push((src_addr, msg));
                    }
                }
                MeshAction::Joined(peer) => {
                    if src == 0 {
                        println!("[{now}] ego: {peer} JOINED the mesh");
                    }
                }
                MeshAction::Left(peer) => {
                    if src == 0 {
                        println!("[{now}] ego: {peer} LEFT the mesh");
                    }
                }
            }
        }
        // Once per second: print the ego's Model-1 descriptor.
        if step % 10 == 0 {
            let d = MeshDescriptor::capture(&nodes[0], now);
            println!(
                "[{now}] ego mesh: {} members, stability {:.2}, churn {:.2}/s, mean info age {}",
                d.len(),
                d.stability_score(),
                d.churn_per_sec,
                d.mean_info_age(),
            );
        }
    }
    println!(
        "\ntotals: ego saw {} joins and {} leaves — the mesh formed and dissolved \
         spontaneously as vehicles came into and out of range.",
        nodes[0].total_joins(),
        nodes[0].total_leaves()
    );
}
