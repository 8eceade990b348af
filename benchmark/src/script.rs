//! The four workloads and their seeded command scripts.
//!
//! A script is a pure function of `(workload, seed)`: the set-up steps and
//! the steps of timed iteration `i` are byte-identical for the same seed,
//! whoever asks and however fast the server answers. The table contents
//! come from the server's own generator flags; the seed drives statement
//! constants, brush rectangles, metric thresholds and appended rows.
//!
//! The seeded constants are drawn from ranges inside which the *selected
//! sets* do not change (the suspicious windows' stddev is ≥ 9.2 and the
//! healthy ones' ≤ 1.0 at every table size used here, so any brush edge in
//! `[4, 8]` selects the same windows). Different seeds therefore send
//! different bytes but ask for the same amount of work, which is what lets
//! a run with one seed be compared with a run with another.

use std::fmt::Write as _;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold explains of a fresh statement per iteration on a 64k-row
    /// numeric table: `core` enumerators + `learn` dominate.
    SensorCold,
    /// Cold explains of the §3.2 FEC walkthrough on a 50k-row string
    /// table: `core::ranker` + `storage` string kernels dominate.
    FecCold,
    /// The loop repeated on one session over a 256k-row table with the
    /// explanation memo warm: JSON encode, the wire, scatter and
    /// re-execution dominate.
    DashboardWarm,
    /// Durable 256-row appends beside a witness session's reads on a
    /// 256k-row table: `server::durability` dominates.
    IngestDurable,
}

/// Which command a step sends; the key latencies are bucketed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Kind {
    OpenSession,
    RunQuery,
    Plot,
    BrushOutputs,
    Zoom,
    BrushInputs,
    SetMetric,
    Debug,
    ClickPredicate,
    Undo,
    CloseSession,
    StreamAppend,
}

impl Kind {
    /// The wire command name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OpenSession => "open_session",
            Kind::RunQuery => "run_query",
            Kind::Plot => "plot",
            Kind::BrushOutputs => "brush_outputs",
            Kind::Zoom => "zoom",
            Kind::BrushInputs => "brush_inputs",
            Kind::SetMetric => "set_metric",
            Kind::Debug => "debug",
            Kind::ClickPredicate => "click_predicate",
            Kind::Undo => "undo",
            Kind::CloseSession => "close_session",
            Kind::StreamAppend => "stream_append",
        }
    }
}

/// What a step's reply must satisfy beyond `ok:true` and the echoed id
/// (see `check.rs`).
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Nothing further.
    Ok,
    /// `open_session` must allocate exactly this session id.
    Session(u64),
    /// `run_query`: a non-empty result; its rows are remembered for `Undo`.
    Rows,
    /// A brush must select something; output brushes are remembered for
    /// `Cleaned`.
    Selection,
    /// `zoom`: a non-empty point list.
    Points,
    /// `debug`: the cache flags match, the top predicate names the
    /// injected fault with improvement ≥ 0.9.
    Explained {
        /// Whether the tier-2 memo must have served it.
        cached: bool,
        /// The required `cache_hit` flag; `None` where an append-absorbed
        /// tier-1 entry may legitimately report either.
        cache_hit: Option<bool>,
    },
    /// `click_predicate`: the applied predicate is the top-ranked one and
    /// every brushed output now satisfies the metric.
    Cleaned {
        /// The aggregate output the metric is over.
        column: &'static str,
        /// True for a `too_high` metric (values must be ≤ `threshold`),
        /// false for `too_low` (values must be ≥ `threshold`).
        too_high: bool,
        /// The metric's threshold.
        threshold: f64,
    },
    /// `undo`: no predicate applied and the rows equal `run_query`'s.
    Restored,
    /// `stream_append`: this many rows appended, `durable:true`.
    Appended(usize),
}

/// One request of a script.
#[derive(Debug, Clone)]
pub struct Step {
    /// The command sent.
    pub kind: Kind,
    /// The request line (no trailing newline), carrying `id`.
    pub line: String,
    /// The request's `id`, echoed by the server.
    pub id: u64,
    /// The reply check.
    pub expect: Expect,
}

/// Sensors in the generated `readings` table.
const SENSORS: usize = 54;
/// Rows per `stream_append` command of `ingest-durable`.
pub const APPEND_ROWS: usize = 256;
/// Timed iterations covered by [`Script::hash`].
pub const HASH_ITERATIONS: u64 = 16;
/// The documented default seed.
pub const DEFAULT_SEED: u64 = 20120827;
/// The documented held-out seed: not used while the benchmark was written.
pub const HELD_OUT_SEED: u64 = 7433;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::SensorCold, Workload::FecCold, Workload::DashboardWarm, Workload::IngestDurable];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SensorCold => "sensor-cold",
            Workload::FecCold => "fec-cold",
            Workload::DashboardWarm => "dashboard-warm",
            Workload::IngestDurable => "ingest-durable",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rows the server's generator produces for this workload's table.
    pub fn readings(self) -> usize {
        match self {
            Workload::SensorCold => 64_000,
            Workload::FecCold => 50_000,
            Workload::DashboardWarm => 256_000,
            Workload::IngestDurable => 256_000,
        }
    }

    /// Rows the sensor generator actually emits: every one of its 54
    /// sensors gets `readings / 54` ticks.
    pub fn generated_rows(self) -> u64 {
        (self.readings() / SENSORS * SENSORS) as u64
    }

    /// The group plot's axes: the grouping column and the aggregate the
    /// metric is over.
    pub fn group_axes(self) -> (&'static str, &'static str) {
        if self.is_fec() {
            ("day", "total")
        } else {
            ("window", "std_temp")
        }
    }

    /// The zoomed tuple plot's axes.
    pub fn tuple_axes(self) -> (&'static str, &'static str) {
        if self.is_fec() {
            ("day", "amount")
        } else {
            ("sensorid", "temp")
        }
    }

    /// True for the workload served from a `--data-dir`.
    pub fn durable(self) -> bool {
        self == Workload::IngestDurable
    }

    /// True when the table is the FEC `contributions` table.
    pub fn is_fec(self) -> bool {
        self == Workload::FecCold
    }

    /// The dataset flags `dbwipes-server` is launched with (`--listen` and
    /// `--data-dir` are added by the launcher; everything else is default).
    pub fn server_args(self) -> Vec<String> {
        match self {
            Workload::FecCold => vec!["--dataset".into(), "fec".into()],
            _ => vec![
                "--dataset".into(),
                "sensor".into(),
                "--readings".into(),
                self.readings().to_string(),
            ],
        }
    }

    /// Full iterations run (and checked) before timing starts. The warm
    /// workload's single cold loop is its warm-up.
    pub fn warmup_iterations(self) -> u64 {
        match self {
            Workload::SensorCold => 3,
            Workload::FecCold => 5,
            Workload::DashboardWarm => 1,
            Workload::IngestDurable => 3,
        }
    }
}

/// SplitMix64: a tiny, dependency-free generator whose stream is fixed by
/// this file, so a script's bytes cannot change because a shim crate did.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[lo, hi)` rounded to three decimals.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + unit * (hi - lo)) * 1000.0).floor() / 1000.0
    }

    /// An integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seeded constants of one Figure-1 loop.
#[derive(Debug, Clone)]
pub struct LoopConstants {
    /// Makes the statement's canonical SQL distinct without changing its
    /// result (`WHERE <col> >= -constant`, true of every row).
    pub statement: u64,
    /// The edge of the output brush (`y_min` on sensor data, `y_max` on FEC).
    pub brush_outputs: f64,
    /// The edge of the input brush, likewise.
    pub brush_inputs: f64,
    /// The error metric's threshold.
    pub threshold: f64,
}

/// The command script of one `(workload, seed)` pair.
#[derive(Debug, Clone)]
pub struct Script {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
}

impl Script {
    /// The script of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Script {
        Script { workload, seed }
    }

    /// A generator for part `stream` of the script, independent of every
    /// other part, so iteration `i` does not depend on how many iterations
    /// ran before it.
    fn rng(&self, stream: u64) -> Rng {
        let mut mix = Rng::new(self.seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(stream + 1));
        Rng::new(mix.next_u64())
    }

    /// The constants of global iteration `iteration`.
    pub fn constants(&self, iteration: u64) -> LoopConstants {
        // The warm workload asks the identical question every time (that is
        // what makes its `debug` a memo hit); the cold ones never repeat a
        // statement within a run.
        let stream = if self.workload == Workload::DashboardWarm { 0 } else { iteration };
        let mut rng = self.rng(stream);
        let base = 1 + self.rng(u64::MAX - 1).below(1_000_000) * 4096;
        let statement =
            if self.workload == Workload::DashboardWarm { base } else { base + iteration };
        if self.workload.is_fec() {
            LoopConstants {
                statement,
                brush_outputs: rng.range(-50_000.0, 0.0),
                brush_inputs: rng.range(-900.0, 0.0),
                threshold: rng.range(0.0, 400.0),
            }
        } else {
            LoopConstants {
                statement,
                brush_outputs: rng.range(4.0, 8.0),
                brush_inputs: rng.range(50.0, 90.0),
                threshold: rng.range(5.0, 7.0),
            }
        }
    }

    /// The statement a loop with these constants runs.
    pub fn sql(&self, statement: u64) -> String {
        if self.workload.is_fec() {
            format!(
                "SELECT day, sum(amount) AS total FROM contributions \
                 WHERE candidate = 'McCain' AND day >= -{statement} GROUP BY day ORDER BY day"
            )
        } else {
            format!(
                "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS std_temp FROM readings \
                 WHERE epoch >= -{statement} GROUP BY window ORDER BY window"
            )
        }
    }

    /// The witness statement of `ingest-durable`, also used by its
    /// post-loop equality gates.
    pub fn witness_sql(&self) -> String {
        self.sql(self.constants(0).statement)
    }

    /// The brush→explain→clean part of the Figure-1 loop on `session`,
    /// starting from a displayed result. `zoom` is sent only where the
    /// workload asks for it.
    fn explain_steps(
        &self,
        out: &mut StepList,
        session: u64,
        c: &LoopConstants,
        zoom: bool,
        cached: bool,
        cache_hit: Option<bool>,
    ) {
        let fec = self.workload.is_fec();
        let (gx, gy) = self.workload.group_axes();
        let (tx, ty) = self.workload.tuple_axes();
        let edge = if fec { "y_max" } else { "y_min" };
        let kind = if fec { "too_low" } else { "too_high" };
        out.push(
            Kind::BrushOutputs,
            format!(
                r#""cmd":"brush_outputs","session":{session},"x":"{gx}","y":"{gy}","brush":{{"{edge}":{}}}"#,
                c.brush_outputs
            ),
            Expect::Selection,
        );
        if zoom {
            out.push(
                Kind::Zoom,
                format!(r#""cmd":"zoom","session":{session},"x":"{tx}","y":"{ty}""#),
                Expect::Points,
            );
        }
        out.push(
            Kind::BrushInputs,
            format!(
                r#""cmd":"brush_inputs","session":{session},"x":"{tx}","y":"{ty}","brush":{{"{edge}":{}}}"#,
                c.brush_inputs
            ),
            Expect::Selection,
        );
        out.push(
            Kind::SetMetric,
            format!(
                r#""cmd":"set_metric","session":{session},"kind":"{kind}","column":"{gy}","value":{}"#,
                c.threshold
            ),
            Expect::Ok,
        );
        out.push(
            Kind::Debug,
            format!(r#""cmd":"debug","session":{session}"#),
            Expect::Explained { cached, cache_hit },
        );
        out.push(
            Kind::ClickPredicate,
            format!(r#""cmd":"click_predicate","session":{session},"index":0"#),
            Expect::Cleaned { column: gy, too_high: !fec, threshold: c.threshold },
        );
        out.push(Kind::Undo, format!(r#""cmd":"undo","session":{session}"#), Expect::Restored);
    }

    fn query_steps(&self, out: &mut StepList, session: u64, sql: &str) {
        let (gx, gy) = self.workload.group_axes();
        out.push(
            Kind::RunQuery,
            format!(r#""cmd":"run_query","session":{session},"sql":"{sql}""#),
            Expect::Rows,
        );
        out.push(
            Kind::Plot,
            format!(r#""cmd":"plot","session":{session},"x":"{gx}","y":"{gy}""#),
            Expect::Points,
        );
    }

    /// One `stream_append` request of `APPEND_ROWS` schema-valid healthy
    /// sensor readings inside the existing trace (no new window appears,
    /// so the witness result keeps its size).
    fn append_step(&self, out: &mut StepList, iteration: u64) {
        let mut rng = self.rng(1_000_000 + iteration);
        // The generator gives every sensor `readings / SENSORS` ticks 31 s apart.
        let span_secs = (self.workload.readings() / SENSORS) as u64 * 31;
        let mut rows = String::with_capacity(APPEND_ROWS * 48);
        for r in 0..APPEND_ROWS {
            if r > 0 {
                rows.push(',');
            }
            let sensor = rng.below(SENSORS as u64);
            let epoch = rng.below(span_secs);
            let _ = write!(
                rows,
                "[{sensor},{epoch},{},{},{},{},{},{}]",
                epoch / 3600,
                epoch / 1800,
                rng.range(15.0, 25.0),
                rng.range(35.0, 55.0),
                rng.range(0.0, 600.0),
                rng.range(2.6, 2.75),
            );
        }
        out.push(
            Kind::StreamAppend,
            format!(r#""cmd":"stream_append","table":"readings","rows":[{rows}]"#),
            Expect::Appended(APPEND_ROWS),
        );
    }

    /// The `stream_append` request line of iteration `iteration`, for the
    /// JSON parse measurement (any workload may ask).
    pub fn append_line(&self, iteration: u64) -> String {
        let mut out = StepList::new(0);
        self.append_step(&mut out, iteration);
        out.steps.remove(0).line
    }

    /// The steps of global iteration `iteration` (warm-ups are iterations
    /// `0..warmup_iterations()`, timed ones follow).
    pub fn iteration(&self, iteration: u64) -> Vec<Step> {
        let mut out = StepList::new(iteration + 1);
        let c = self.constants(iteration);
        match self.workload {
            Workload::SensorCold | Workload::FecCold => {
                // Session ids are allocated 1, 2, 3, … by a fresh server.
                let session = iteration + 1;
                out.push(
                    Kind::OpenSession,
                    r#""cmd":"open_session""#.into(),
                    Expect::Session(session),
                );
                self.query_steps(&mut out, session, &self.sql(c.statement));
                self.explain_steps(&mut out, session, &c, false, false, Some(false));
                out.push(
                    Kind::CloseSession,
                    format!(r#""cmd":"close_session","session":{session}"#),
                    Expect::Ok,
                );
            }
            Workload::DashboardWarm => {
                self.query_steps(&mut out, 1, &self.sql(c.statement));
                // Only the very first debug of the session runs the pipeline.
                let warm = iteration > 0;
                self.explain_steps(&mut out, 1, &c, true, warm, Some(warm));
            }
            Workload::IngestDurable => {
                self.append_step(&mut out, iteration);
                self.query_steps(&mut out, 1, &self.witness_sql());
            }
        }
        out.steps
    }

    /// The steps run once after the first `ping`, before any iteration.
    pub fn prologue(&self) -> Vec<Step> {
        let mut out = StepList::new(0);
        match self.workload {
            Workload::SensorCold | Workload::FecCold => {}
            Workload::DashboardWarm => {
                out.push(Kind::OpenSession, r#""cmd":"open_session""#.into(), Expect::Session(1));
            }
            Workload::IngestDurable => {
                out.push(Kind::OpenSession, r#""cmd":"open_session""#.into(), Expect::Session(1));
                self.query_steps(&mut out, 1, &self.witness_sql());
            }
        }
        out.steps
    }

    /// The explain of `ingest-durable`'s post-loop equality gate on
    /// `session`: the witness, or — `cold` — a session opened after the
    /// loop whose statement differs by its constant, so that nothing it
    /// asks for is in either registry tier and the absorbed caches are
    /// compared with a rebuild from the grown table.
    pub fn epilogue_explain(&self, session: u64, block: u64, cold: bool) -> Vec<Step> {
        let mut out = StepList::new(block);
        let c = self.constants(0);
        self.query_steps(&mut out, session, &self.sql(c.statement + u64::from(cold)));
        self.explain_steps(&mut out, session, &c, false, false, None);
        out.steps
    }

    /// FNV-1a over the prologue and the first warm-up + [`HASH_ITERATIONS`]
    /// iterations: equal for equal seeds, different for different ones.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let iterations = self.workload.warmup_iterations() + HASH_ITERATIONS;
        let steps =
            self.prologue().into_iter().chain((0..iterations).flat_map(|i| self.iteration(i)));
        for step in steps {
            for byte in step.line.bytes().chain(std::iter::once(b'\n')) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Collects steps, numbering request ids `block * 100 + position`.
struct StepList {
    block: u64,
    steps: Vec<Step>,
}

impl StepList {
    fn new(block: u64) -> StepList {
        StepList { block, steps: Vec::new() }
    }

    fn push(&mut self, kind: Kind, body: String, expect: Expect) {
        let id = self.block * 100 + self.steps.len() as u64;
        self.steps.push(Step { kind, line: format!(r#"{{{body},"id":{id}}}"#), id, expect });
    }
}
