//! Sliding-window dashboard — "distinct sample over the last w slots".
//!
//! A bursty stream flows into 6 sites; the coordinator maintains a random
//! representative of the distinct elements seen in the last `w` timesteps
//! (Algorithms 3 & 4). The example prints a live-style dashboard every
//! few hundred slots: the current window sample, the per-site candidate
//! memory (the candidate set `Tᵢ` — Lemma 10 says it stays logarithmic), and the
//! cumulative message cost.
//!
//! Run with: `cargo run --release --example sliding_dashboard`

use distinct_stream_sampling::prelude::*;

fn main() {
    let k = 6;
    let window = 120; // slots
    let config = SlidingConfig::new(window);
    let mut cluster = config.cluster(k);

    // Bursty workload: alternating hot phases (few distinct, high rate)
    // and calm phases (fresh values trickling in).
    let profile = TraceProfile {
        name: "bursty",
        total: 60_000,
        distinct: 12_000,
    };
    let input = SlottedInput::paper_default(TraceLikeStream::new(profile, 11), k, 13);

    println!("window = {window} slots, {k} sites; dashboard every 2000 slots\n");
    let mut last_print = 0u64;
    for (slot, batch) in input {
        while cluster.now() < slot {
            cluster.advance_slot();
        }
        for (site, e) in batch {
            cluster.observe(site, e);
        }

        if slot.0 >= last_print + 2_000 {
            last_print = slot.0;
            let sample = cluster.sample();
            let mems = cluster.site_memory_tuples();
            let c = cluster.counters();
            println!(
                "slot {:>6} | window sample: {:<22} | site memory (tuples): {:?} | msgs: {}",
                slot.0,
                sample
                    .first()
                    .map(ToString::to_string)
                    .unwrap_or_else(|| "(window empty)".into()),
                mems,
                c.total_messages()
            );
        }
    }

    // Drain the window: the sample must disappear with the data.
    for _ in 0..=window {
        cluster.advance_slot();
    }
    assert!(cluster.sample().is_empty());
    println!("\nstream ended; window drained; sample is empty — as it must be.");
    println!(
        "total: {} messages, {} bytes",
        cluster.counters().total_messages(),
        cluster.counters().total_bytes()
    );
}
