//! A seal far past one frame: 131 072 keys × 4 aggregates sealed by one
//! watermark is ≈ 25 MB of result rows, more than `MAX_FRAME_LEN`. The
//! server splits it into `Results` frames of at most `ROWS_CHUNK_BYTES`,
//! and the subscriber receives every row, bit-identical to an in-process
//! host, with nothing dropped.

use fw_serve::host::{GroupHost, HostConfig};
use fw_serve::wire::{write_frame, Frame, FrameReader, ROWS_CHUNK_BYTES};
use fw_serve::{ServeClient, ServeConfig, Server};
use std::net::TcpStream;
use std::time::Duration;

const KEYS: u32 = 131_072;

const Q_DASH: &str = "SELECT k, MIN(v) AS Lo, MAX(v) AS Hi, SUM(v) AS Total, AVG(v) AS Mean \
     FROM S GROUP BY k, Windows(Window('w', TumblingWindow(second, 10)))";

fn columns() -> (Vec<u64>, Vec<u32>, Vec<f64>) {
    let keys: Vec<u32> = (0..KEYS).collect();
    let times: Vec<u64> = keys
        .iter()
        .map(|&k| u64::from(k) * 10 / u64::from(KEYS))
        .collect();
    let values: Vec<f64> = keys
        .iter()
        .map(|&k| f64::from(k.wrapping_mul(2_654_435_761) % 1000) * 0.25 - 100.0)
        .collect();
    (times, keys, values)
}

#[test]
fn a_seal_past_the_frame_cap_reaches_the_subscriber_in_bounded_frames() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let mut handle = server.spawn();

    // The subscriber speaks raw frames so every frame's size is visible.
    let mut subscriber = TcpStream::connect(addr).unwrap();
    subscriber
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut frames = FrameReader::new();
    write_frame(&mut subscriber, &Frame::hello()).unwrap();
    assert!(matches!(
        frames.read(&mut subscriber).unwrap(),
        Frame::HelloAck { .. }
    ));
    write_frame(&mut subscriber, &Frame::Register { sql: Q_DASH.into() }).unwrap();
    let Frame::Registered { query_id } = frames.read(&mut subscriber).unwrap() else {
        panic!("registration failed");
    };

    let (times, keys, values) = columns();
    let mut feeder = ServeClient::connect(addr).unwrap();
    let mut reference = GroupHost::new(HostConfig::default());
    reference.register_sql(Q_DASH).unwrap();
    for at in (0..KEYS as usize).step_by(16_384) {
        let end = at + 16_384;
        feeder
            .push_columns(&times[at..end], &keys[at..end], &values[at..end])
            .unwrap();
        reference
            .push_columns(&times[at..end], &keys[at..end], &values[at..end])
            .unwrap();
    }
    feeder.watermark(10).unwrap();
    reference.advance_watermark(10).unwrap();
    let expected = fw_engine::sorted_group_results(reference.poll_results());
    assert_eq!(expected.len(), KEYS as usize * 4);

    let mut served = Vec::new();
    let mut results_frames = 0;
    while served.len() < expected.len() {
        let (kind, payload) = frames.read_raw(&mut subscriber).unwrap();
        let frame_bytes = 4 + 1 + payload.len();
        assert!(
            frame_bytes <= ROWS_CHUNK_BYTES,
            "a {frame_bytes}-byte frame"
        );
        match Frame::decode(kind, payload).unwrap() {
            Frame::Results { query_id: q, rows } => {
                assert_eq!(q, query_id);
                served.extend(fw_serve::wire::tag_rows(q, rows));
                results_frames += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(results_frames >= 25, "{results_frames} frames");
    let served = fw_engine::sorted_group_results(served);
    assert_eq!(served.len(), expected.len());
    for (s, e) in served.iter().zip(&expected) {
        assert_eq!(s.query.0, query_id);
        assert_eq!(s.result.window, e.result.window);
        assert_eq!(s.result.interval, e.result.interval);
        assert_eq!((s.result.key, s.result.agg), (e.result.key, e.result.agg));
        assert_eq!(s.result.value.to_bits(), e.result.value.to_bits());
    }

    feeder.finish().unwrap();
    let metrics = handle.metrics().snapshot();
    assert_eq!(metrics.results_dropped, 0);
    assert_eq!(metrics.results_rows_out, expected.len() as u64);
    handle.stop();
}
