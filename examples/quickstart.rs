//! Quickstart: the paper's Figure 1 ring, end to end.
//!
//! Builds the four-process ring program, prints its time-independent
//! trace (matching Figure 1 of the paper line for line), writes the
//! Figure 5 platform and Figure 6 deployment files, and replays the
//! trace to get a simulated execution time.
//!
//! Run with: `cargo run --release --example quickstart`

use titr::platform::deployment::Deployment;
use titr::platform::desc::{ClusterSpec, ClusterTopology, PlatformDesc};
use titr::replay::{replay, ReplayConfig, Sources};

fn main() {
    // The MPI code of Figure 1 (left), as a program model.
    let ring = titr::npb::ring::RingConfig::figure_1();

    // Its time-independent trace (Figure 1, right).
    let trace = ring.trace();
    let mut text = Vec::new();
    trace.write_merged(&mut text).unwrap();
    println!("--- time-independent trace (Figure 1) ---");
    print!("{}", String::from_utf8(text).unwrap());

    // The target platform (Figure 5): four nodes, one switch.
    let spec = ClusterSpec {
        id: "AS_mycluster".into(),
        prefix: "mycluster-".into(),
        suffix: ".mysite.fr".into(),
        count: 4,
        power: 1.17e9,
        cores: 1,
        bw: 1.25e8,
        lat: 16.67e-6,
        bb_bw: 1.25e9,
        bb_lat: 16.67e-6,
        topology: ClusterTopology::Flat,
    };
    let desc = PlatformDesc::single(spec);
    println!("\n--- platform file (Figure 5) ---");
    print!("{}", desc.to_xml_string());

    // The deployment (Figure 6): rank i on node i.
    let deployment = Deployment::round_robin(&desc.host_names(), 4);
    println!("\n--- deployment file (Figure 6) ---");
    print!("{}", deployment.to_xml_string());

    // Replay.
    let platform = desc.build();
    let hosts = deployment.host_ids(&platform);
    let sources = Sources::memory(&trace);
    let out = replay(sources, platform, &hosts, &ReplayConfig::default(), None).expect("replay");
    println!("\nsimulated execution time: {:.6} s", out.simulated_time);
    println!("actions replayed:         {}", out.actions_replayed);
}
