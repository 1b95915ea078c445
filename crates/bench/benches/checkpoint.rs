//! Checkpoint cost: snapshot size and encode/restore latency as a
//! function of live state (events absorbed, shard count, plan choice).
//!
//! Emits `BENCH_checkpoint.json` so CI can track the durability layer's
//! overhead trajectory: a regression in snapshot size or checkpoint
//! latency shows up as a diff in the artifact, not as a mystery in
//! production.
//!
//! Environment knobs: `CHECKPOINT_SMOKE=1` shrinks the sweep for CI;
//! `CHECKPOINT_EVENTS` / `CHECKPOINT_ITERS` override the stream length
//! and iteration count.

use factor_windows::{Parallelism, PlanChoice, Session};
use fw_bench::{bench_events, time, write_bench_json};
use fw_core::json::JsonValue;
use fw_core::{AggregateFunction, Window, WindowQuery, WindowSet};

const KEYS: u32 = 64;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn session(choice: PlanChoice, parallelism: Parallelism) -> Session {
    let windows = WindowSet::new(vec![
        Window::tumbling(20).unwrap(),
        Window::tumbling(30).unwrap(),
        Window::tumbling(40).unwrap(),
    ])
    .unwrap();
    let query = WindowQuery::new(windows, AggregateFunction::Sum);
    Session::from_query(query)
        .plan_choice(choice)
        .parallelism(parallelism)
        .collect_results(true)
}

fn main() {
    let smoke = std::env::var_os("CHECKPOINT_SMOKE").is_some();
    let events_n = env_u64("CHECKPOINT_EVENTS", if smoke { 40_000 } else { 200_000 });
    let iters = env_u64("CHECKPOINT_ITERS", if smoke { 3 } else { 10 }) as u32;
    let events = bench_events(events_n, KEYS);

    println!("# checkpoint: snapshot size + latency, {events_n} events, {KEYS} keys");
    let number = |n: u64| JsonValue::Number(i128::from(n));
    let mut rows = Vec::new();
    for choice in PlanChoice::CONCRETE {
        for shards in [0usize, 2, 4] {
            let parallelism = match shards {
                0 => Parallelism::Sequential,
                n => Parallelism::Fixed(n),
            };
            let session = session(choice, parallelism);
            let mut pipeline = session.build().expect("query compiles");
            pipeline.push_batch(&events).expect("stream ingests");
            // Leave panes open (no final watermark): the snapshot must
            // carry the full live state, the worst case for size.
            let mut snapshot = Vec::new();
            pipeline.checkpoint(&mut snapshot).expect("checkpoints");
            let bytes = snapshot.len() as u64;

            let encode = time(iters, || {
                let mut sink = Vec::with_capacity(snapshot.len());
                pipeline.checkpoint(&mut sink).expect("checkpoints");
            });
            let restore = time(iters, || {
                let _ = session
                    .restore(&mut snapshot.as_slice())
                    .expect("snapshot restores");
            });
            let encode_us = encode.mean.as_micros() as u64;
            let restore_us = restore.mean.as_micros() as u64;
            println!(
                "checkpoint/{choice}/shards={shards:<2} {bytes:>9} B  encode {encode_us:>7} us  \
                 restore {restore_us:>7} us"
            );
            rows.push(JsonValue::Object(vec![
                ("choice".to_string(), JsonValue::String(choice.to_string())),
                ("shards".to_string(), number(shards as u64)),
                ("events".to_string(), number(events_n)),
                ("snapshot_bytes".to_string(), number(bytes)),
                ("encode_micros".to_string(), number(encode_us)),
                ("restore_micros".to_string(), number(restore_us)),
            ]));
        }
    }
    let doc = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("checkpoint".to_string()),
        ),
        ("records".to_string(), JsonValue::Array(rows)),
    ]);
    match write_bench_json("checkpoint", &doc) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("# failed to write BENCH_checkpoint.json: {e}"),
    }
}
