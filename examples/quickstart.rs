//! Quickstart: the paper's motivating example (Figure 1 / Table I) end to end.
//!
//! Two vehicles (at nodes `a` and `c`) and four requests arrive on the small
//! seven-node road network of Figure 1(a).  SARD, guided by the shareability
//! graph, serves all four requests.  (On the paper's exact edge weights the
//! online insertion baseline misses one of them; the weights here are
//! reconstructed approximately from the figure, so the baseline's exact count
//! may differ — the structural story is the same.)
//!
//! Run with `cargo run --example quickstart`.

use structride::prelude::*;

/// Builds the Figure 1(a) road network: nodes a..g = 0..6.
fn figure1_engine() -> SpEngine {
    let coords = [
        (0.0, 0.0),      // a
        (200.0, 0.0),    // b
        (500.0, 0.0),    // c
        (0.0, 400.0),    // d
        (500.0, 400.0),  // e
        (700.0, 100.0),  // f
        (700.0, -100.0), // g
    ];
    let mut b = RoadNetworkBuilder::new();
    for (x, y) in coords {
        b.add_node(Point::new(x, y));
    }
    let (a, bb, c, d, e, f, g) = (0, 1, 2, 3, 4, 5, 6);
    for (u, v, w) in [
        (a, bb, 2.0),
        (bb, c, 3.0),
        (bb, e, 17.0),
        (c, f, 2.0),
        (a, d, 13.0),
        (d, e, 2.0),
        (e, f, 12.0),
        (f, g, 6.0),
        (c, g, 2.0),
        (c, e, 18.0),
    ] {
        b.add_bidirectional(u, v, w).expect("valid example edge");
    }
    SpEngine::new(b.build().expect("non-empty example network"))
}

/// The four requests of Table I (source, destination, release, deadline).
fn table1_requests(engine: &SpEngine) -> Vec<Request> {
    let (a, bb, c, d, e, f, g) = (0u32, 1, 2, 3, 4, 5, 6);
    [
        (1u32, a, d, 0.0, 30.0),
        (2, c, f, 1.0, 19.0),
        (3, bb, e, 2.0, 21.0),
        (4, c, g, 3.0, 21.0),
    ]
    .into_iter()
    .map(|(id, s, t, release, deadline)| {
        let cost = engine.cost(s, t);
        Request::new(id, s, t, 1, release, deadline, deadline - cost, cost)
    })
    .collect()
}

fn main() {
    let engine = figure1_engine();
    let requests = table1_requests(&engine);

    println!("== Table I requests ==");
    for r in &requests {
        println!(
            "  r{}: {} -> {}  release {:>4.0}  deadline {:>4.0}  direct cost {:>4.1}",
            r.id, r.source, r.destination, r.release, r.deadline, r.shortest_cost
        );
    }

    // Inspect the shareability graph the SARD builder constructs (Fig. 1(b)).
    let mut builder = ShareabilityGraphBuilder::new(
        &engine,
        BuilderConfig {
            vehicle_capacity: 3,
            angle: AnglePruning::disabled(),
        },
    );
    builder.add_batch(&engine, &requests);
    println!("\n== Shareability graph ==");
    for r in &requests {
        let mut neighbors: Vec<_> = builder.graph().neighbors(r.id).collect();
        neighbors.sort_unstable();
        println!(
            "  r{} (degree {}): shares with {:?}",
            r.id,
            builder.graph().degree(r.id),
            neighbors
        );
    }

    // Dispatch the batch with the online baseline and with SARD.
    let config = StructRideConfig {
        shareability_capacity: 3,
        angle: AnglePruning::disabled(),
        ..Default::default()
    };
    let vehicles = || vec![Vehicle::new(1, 0, 3), Vehicle::new(2, 2, 3)];

    let ctx = DispatchContext::new(&engine, config, 5.0);

    let mut gdp = PruneGdp::new();
    let mut gdp_vehicles = vehicles();
    let gdp_out = gdp.dispatch_batch(&ctx, &mut gdp_vehicles, &requests);

    let mut sard = SardDispatcher::new(config);
    let mut sard_vehicles = vehicles();
    let sard_out = sard.dispatch_batch(&ctx, &mut sard_vehicles, &requests);

    println!("\n== Dispatch results ==");
    println!("  pruneGDP serves {:?}", gdp_out.assigned);
    println!("  SARD     serves {:?}", sard_out.assigned);
    for v in &sard_vehicles {
        if !v.schedule.is_empty() {
            println!("    vehicle w{} drives {}", v.id, v.schedule);
        }
    }
    println!(
        "\nSARD serves {} of {} requests; the online baseline serves {}.",
        sard_out.assigned.len(),
        requests.len(),
        gdp_out.assigned.len()
    );
}
