//! How fast a scatter series encodes: 100 000 points shaped like a `zoom`
//! of the sensor table (a row id, a sensor id, a temperature with two
//! decimals) written through `JsonWriter::points`, and the same points
//! pushed key by key for comparison. Prints MB/s of reply text and gates
//! nothing: the number is for comparing builds of the encoder on one host.
//!
//! `#[ignore]`d; run it in release:
//!
//! ```sh
//! cargo test --release -p dbwipes-server --test point_throughput -- --ignored --nocapture
//! ```

use dbwipes_server::JsonWriter;
use std::time::Instant;

const POINTS: usize = 100_000;
const ROUNDS: usize = 15;

/// The best of [`ROUNDS`] encodes, in MB/s, and the bytes of one.
fn throughput(encode: impl Fn(&mut String)) -> (f64, usize) {
    let mut out = String::new();
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        out.clear();
        let start = Instant::now();
        encode(&mut out);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (out.len() as f64 / 1e6 / best, out.len())
}

#[test]
#[ignore = "prints encoder throughput; run in release with --ignored --nocapture"]
fn a_100k_point_series_encodes_at_this_many_mb_per_s() {
    let points: Vec<[f64; 3]> = (0..POINTS)
        .map(|i| {
            let row = (i * 5 / 2) as f64;
            let sensor = (i % 54) as f64;
            let temp = ((i * 7919) % 10_000 + 1_500) as f64 / 100.0;
            [row, sensor, temp]
        })
        .collect();
    let (written, bytes) = throughput(|out| {
        JsonWriter::new(out)
            .points("input", POINTS, |w| points.iter().for_each(|&[row, x, y]| w.point(row, x, y)))
    });
    let (keyed, keyed_bytes) = throughput(|out| {
        let mut w = JsonWriter::new(out);
        w.begin_array();
        for &[row, x, y] in &points {
            w.begin_object();
            w.key("kind").str("input");
            w.key("ref").num(row);
            w.key("x").num(x);
            w.key("y").num(y);
            w.end_object();
        }
        w.end_array();
    });
    assert_eq!(bytes, keyed_bytes, "the two encoders wrote different replies");
    println!(
        "point writer: {written:.0} MB/s; key by key: {keyed:.0} MB/s \
         ({POINTS} points, {bytes} bytes, best of {ROUNDS})"
    );
}
