//! The four workloads: their SQL, their streams, and the constants frozen
//! on the defining host (2 cores; see README.md).
//!
//! A workload is a pure function of `--seed`: the SQL and the stream shape
//! are fixed here, the keys and values come from the seeded generator.

use crate::gen::{KeyDist, StreamSpec, BATCH};

/// Where a workload's stream runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    /// `Session` → `Pipeline` in this process, `Parallelism::Sequential`.
    InProcess,
    /// `Server` on 127.0.0.1, one feeder and one subscriber connection.
    Serve,
    /// `Session::parallelism(Distributed { workers })`: `fw-worker` processes.
    Dist { workers: usize },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub why: &'static str,
    /// The standing queries, as SQL text (setup starts from here).
    pub queries: &'static [&'static str],
    pub stream: StreamSpec,
    pub deploy: Deploy,
    /// Events per closed-loop repetition: about one second on the defining
    /// host, and a whole number of watermark periods.
    pub rep_events: u64,
    /// Open-loop reference rate in events/s: the ladder step nearest a
    /// quarter of the closed-loop median on the defining host. Frozen.
    pub reference_rate: u64,
    /// The rate ladder of the traced run, events/s. Frozen.
    pub ladder: [u64; 4],
    /// The latency limit of the ladder, on the tail percentile: four times
    /// the tail measured at the reference rate on the defining host. Frozen.
    pub latency_limit_us: u64,
    /// Stream prefix checked row for row against `reference_results`; on
    /// the wide-key workloads just past 1.5 h of stream, where the first two
    /// windows have sealed.
    pub oracle_events: u64,
    /// The oracle checks the keys divisible by this (1 = every key): the
    /// naive oracle is per key, so a key sample keeps it affordable at
    /// 65 536 keys without weakening the row-for-row comparison.
    pub oracle_key_stride: u32,
}

impl Workload {
    /// `events` rounded up to a whole number of watermark periods.
    #[must_use]
    pub fn whole_periods(&self, events: u64) -> u64 {
        let period = self.stream.watermark_events();
        events.div_ceil(period).max(1) * period
    }

    /// A stream length: `events` in whole watermark periods, and never
    /// shorter than the oracle prefix, the shortest stream on which every
    /// workload is known to seal rows (so short runs still have rows to
    /// check and latencies to report).
    #[must_use]
    pub fn sized(&self, events: f64) -> u64 {
        self.whole_periods((events as u64).max(self.oracle_events))
    }

    /// Batches in `events` events.
    #[must_use]
    pub fn batches(events: u64) -> u64 {
        events / BATCH as u64
    }
}

/// The paper's SequentialGen tumbling set at N = 10 (§V-A3, seed range 10):
/// ranges 20, 30, …, 110, in minutes as in Figure 1.
const HOT_KEY_SQL: &str = "SELECT DeviceID, MIN(T) AS MinTemp \
     FROM Input TIMESTAMP BY EntryTime \
     GROUP BY DeviceID, Windows( \
         Window('20 min', TumblingWindow(minute, 20)), \
         Window('30 min', TumblingWindow(minute, 30)), \
         Window('40 min', TumblingWindow(minute, 40)), \
         Window('50 min', TumblingWindow(minute, 50)), \
         Window('60 min', TumblingWindow(minute, 60)), \
         Window('70 min', TumblingWindow(minute, 70)), \
         Window('80 min', TumblingWindow(minute, 80)), \
         Window('90 min', TumblingWindow(minute, 90)), \
         Window('100 min', TumblingWindow(minute, 100)), \
         Window('110 min', TumblingWindow(minute, 110)))";

/// Four aggregates in one SELECT over SequentialGen N = 5 (seed range 30 min).
const DASHBOARD_SQL: &str = "SELECT DeviceID, MIN(T) AS Low, MAX(T) AS High, \
         SUM(T) AS Total, AVG(T) AS Mean \
     FROM Input TIMESTAMP BY EntryTime \
     GROUP BY DeviceID, Windows( \
         Window('60 min', TumblingWindow(minute, 60)), \
         Window('90 min', TumblingWindow(minute, 90)), \
         Window('120 min', TumblingWindow(minute, 120)), \
         Window('150 min', TumblingWindow(minute, 150)), \
         Window('180 min', TumblingWindow(minute, 180)))";

/// Figure 1's window set with SUM (partitioned-by).
const SERVE_SUM_SQL: &str = "SELECT DeviceID, SUM(T) AS Total \
     FROM Input TIMESTAMP BY EntryTime \
     GROUP BY DeviceID, Windows( \
         Window('20 min', TumblingWindow(minute, 20)), \
         Window('30 min', TumblingWindow(minute, 30)), \
         Window('40 min', TumblingWindow(minute, 40)))";

/// MIN over hopping windows with r = 2s (covered-by).
const SERVE_MIN_SQL: &str = "SELECT DeviceID, MIN(T) AS Low \
     FROM Input TIMESTAMP BY EntryTime \
     GROUP BY DeviceID, Windows( \
         Window('20/10 min', HoppingWindow(minute, 20, 10)), \
         Window('40/20 min', HoppingWindow(minute, 40, 20)), \
         Window('60/30 min', HoppingWindow(minute, 60, 30)))";

/// The wide-key stream shape: uniformly random keys, 256 events per second
/// of stream time, bounded disorder of 64 s.
const fn wide_keys(keys: u32) -> StreamSpec {
    StreamSpec {
        keys: KeyDist::Uniform(keys),
        events_per_unit: 256,
        disorder_units: 64,
        watermark_batches: 4,
    }
}

/// Every workload, in the order `--all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_hot_key",
        why: "1 key, in order, single MIN over the paper's 10 tumbling windows: the fold kernel does the work and the cost model is on trial",
        queries: &[HOT_KEY_SQL],
        stream: StreamSpec {
            keys: KeyDist::Single,
            events_per_unit: 1,
            disorder_units: 0,
            watermark_batches: 16,
        },
        deploy: Deploy::InProcess,
        rep_events: 256 << 20,
        reference_rate: 64_000_000,
        ladder: [32_000_000, 64_000_000, 128_000_000, 192_000_000],
        latency_limit_us: 120,
        oracle_events: 1 << 18,
        oracle_key_stride: 1,
    },
    Workload {
        name: "dashboard_wide_keys",
        why: "65536 random keys, 4 aggregates, disorder 64: key runs of 1 and state past L2, so interner, slabs, seal/emit and the reorder buffer do the work",
        queries: &[DASHBOARD_SQL],
        stream: wide_keys(65_536),
        deploy: Deploy::InProcess,
        rep_events: 225 * 16_384,
        reference_rate: 1_000_000,
        ladder: [500_000, 1_000_000, 2_000_000, 3_000_000],
        latency_limit_us: 100_000,
        oracle_events: 85 * 16_384,
        oracle_key_stride: 64,
    },
    Workload {
        name: "serve_loopback",
        why: "SQL to rows over 127.0.0.1, two standing queries, 1024 Zipf keys: wire codec, ingest queue, engine-thread hop and outbox fan-out do the work",
        queries: &[SERVE_SUM_SQL, SERVE_MIN_SQL],
        stream: StreamSpec {
            keys: KeyDist::Zipf(1024),
            events_per_unit: 32,
            disorder_units: 0,
            watermark_batches: 4,
        },
        deploy: Deploy::Serve,
        rep_events: 12 << 20,
        reference_rate: 4_000_000,
        ladder: [2_000_000, 4_000_000, 8_000_000, 12_000_000],
        latency_limit_us: 35_000,
        oracle_events: 1 << 18,
        oracle_key_stride: 1,
    },
    Workload {
        name: "dist_workers2",
        why: "the dashboard query over 32768 random keys through 2 fw-worker processes: FWD1 framing, scatter staging, sockets and gather/merge do the work",
        queries: &[DASHBOARD_SQL],
        // Half the dashboard's keys: a worker answers a poll with one frame,
        // and at 65 536 keys the three windows that seal together at 3 h make
        // that frame 18 MB, past the wire's 16 MiB cap, which fails the
        // pipeline (README.md, "Findings"). 32 768 keys fit at any length.
        stream: wide_keys(32_768),
        deploy: Deploy::Dist { workers: 2 },
        rep_events: 400 * 16_384,
        reference_rate: 1_500_000,
        ladder: [750_000, 1_500_000, 3_000_000, 4_500_000],
        latency_limit_us: 200_000,
        oracle_events: 85 * 16_384,
        oracle_key_stride: 64,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Stream;

    #[test]
    fn every_workload_generates_and_its_sizes_are_whole_periods() {
        for w in &WORKLOADS {
            let _ = Stream::generate(w.stream, 1);
            assert_eq!(w.whole_periods(w.rep_events), w.rep_events, "{}", w.name);
            assert!(w.oracle_events >= 200_000, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(w.ladder[1], w.reference_rate, "{}", w.name);
            for sql in w.queries {
                fw_sql::parse_to_query(sql).expect("workload SQL parses");
            }
        }
    }

    #[test]
    fn input_is_a_pure_function_of_the_seed() {
        for w in &WORKLOADS {
            let first = Stream::generate(w.stream, 42).input_hash(1 << 20);
            let second = Stream::generate(w.stream, 42).input_hash(1 << 20);
            assert_eq!(first, second, "{}", w.name);
            assert_ne!(first, Stream::generate(w.stream, 43).input_hash(1 << 20));
        }
    }
}
