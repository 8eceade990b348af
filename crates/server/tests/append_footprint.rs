//! What an appended row costs in resident memory, measured in-process
//! over a fixed number of rounds rather than a timed loop: the server's
//! durable streaming configuration — the 256k-row sensor table served
//! from a data directory, a witness session whose `GROUP BY` statement the
//! registry keeps absorbing — takes 600 rounds of a 256-row
//! `stream_append`, the witness's `run_query` and its `plot`. The resident
//! size grows by what the process keeps per row: the table's values, the
//! registry cache's row slot and row list, the displayed result's lineage,
//! and whatever heap the allocator cannot reuse.
//!
//! `#[ignore]`d, and alone in its binary so that nothing else moves the
//! resident size: run it in release,
//!
//! ```sh
//! cargo test --release -p dbwipes-server --test append_footprint -- --ignored --nocapture
//! ```

use dbwipes_data::{generate_sensor, SensorConfig};
use dbwipes_server::{SessionManager, StorageRuntime};
use std::fmt::Write as _;
use std::sync::Arc;

/// Rows the generator is asked for, as the durable workload's server is.
const READINGS: usize = 256_000;
/// Sensors in the generated table.
const SENSORS: u64 = 54;
/// Rows per `stream_append`.
const APPEND_ROWS: usize = 256;
/// The round the measurement starts from (the allocator has settled by
/// then) and the round it ends at.
const FROM: usize = 100;
const TO: usize = 600;
/// Most resident bytes an appended row may cost: 39 of table (four
/// floats at eight bytes; once sealed, the epoch at four and the sensor,
/// hour and window at one), 16 of registry cache, 8 of displayed lineage,
/// and allocator slack.
const BYTES_PER_ROW: f64 = 85.0;

const WITNESS_SQL: &str = "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp \
                           FROM readings WHERE epoch >= -1 GROUP BY window ORDER BY window";

/// The process's resident size in bytes, from `/proc/self/status`.
fn resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("a Linux /proc");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("a VmRSS line");
    let kib: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kib * 1024
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[lo, hi)` to three decimals.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + unit * (hi - lo)) * 1000.0).floor() / 1000.0
    }
}

/// Round `round`'s `stream_append`: healthy readings inside the table's
/// time span, so no new window appears and the witness's result keeps its
/// size.
fn append_line(round: usize) -> String {
    let mut rng = Rng(round as u64 ^ 0x5eed);
    let span = READINGS as u64 / SENSORS * 31;
    let mut rows = String::new();
    for r in 0..APPEND_ROWS {
        let (sensor, epoch) = (rng.next() % SENSORS, rng.next() % span);
        let sep = if r > 0 { "," } else { "" };
        let (temp, humidity) = (rng.range(15.0, 25.0), rng.range(35.0, 55.0));
        let (light, voltage) = (rng.range(0.0, 600.0), rng.range(2.6, 2.75));
        let (hour, window) = (epoch / 3600, epoch / 1800);
        write!(rows, "{sep}[{sensor},{epoch},{hour},{window},{temp},{humidity},{light},{voltage}]")
            .unwrap();
    }
    format!(r#"{{"cmd":"stream_append","table":"readings","rows":[{rows}]}}"#)
}

/// A per-run data directory under the OS temp dir; removed on drop.
struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
#[ignore = "measures resident memory; run alone, in release, with --ignored"]
fn an_appended_row_costs_at_most_85_resident_bytes() {
    let dir =
        TempDir(std::env::temp_dir().join(format!("dbwipes-footprint-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    // The data directory opens before the table is generated, as the
    // server binary does it.
    let runtime = Arc::new(StorageRuntime::open(&dir.0).unwrap());
    let data = generate_sensor(&SensorConfig {
        num_readings: READINGS,
        failing_sensors: vec![15],
        ..SensorConfig::small()
    });
    let mut catalog = dbwipes_storage::Catalog::new();
    catalog.register(data.table).unwrap();
    let manager = SessionManager::new(catalog);
    manager.attach_storage(runtime);
    manager.flush_storage();

    let ask = |line: &str| {
        let reply = manager.handle_line(line);
        assert!(reply.contains(r#""ok":true"#), "{line:.80} -> {reply:.300}");
    };
    let witness = || {
        ask(&format!(r#"{{"cmd":"run_query","session":1,"sql":"{WITNESS_SQL}"}}"#));
        ask(r#"{"cmd":"plot","session":1,"x":"window","y":"std_temp"}"#);
    };
    ask(r#"{"cmd":"open_session"}"#);
    witness();
    let mut from = 0;
    for round in 1..=TO {
        ask(&append_line(round));
        witness();
        if round == FROM {
            from = resident_bytes();
        }
    }
    let grown = resident_bytes() as f64 - from as f64;
    let per_row = grown / ((TO - FROM) * APPEND_ROWS) as f64;
    println!(
        "resident size grew {:.1} MB over rounds {FROM}..{TO}: {per_row:.1} B per appended row",
        grown / 1e6
    );
    assert!(per_row <= BYTES_PER_ROW, "{per_row:.1} B per appended row > {BYTES_PER_ROW}");
}
