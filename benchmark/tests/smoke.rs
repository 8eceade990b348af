//! Keeps the benchmark itself from rotting: every workload's script runs for
//! two iterations against an in-process `SessionManager` through the same
//! reply checks the timed run uses (no timing asserted), scripts are a pure
//! function of the seed, and `BENCHMARK.json` names exactly the workloads
//! and metrics the driver prints.

use dbwipes_benchmark::check::Checker;
use dbwipes_benchmark::report::{MetricDef, END_TO_END, PER_LAYER};
use dbwipes_benchmark::script::{Script, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use dbwipes_benchmark::trace::{build_manager, build_table};
use dbwipes_server::Json;

#[test]
fn every_workload_passes_its_own_checks_in_process() {
    for workload in Workload::ALL {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manager =
            build_manager(build_table(workload), workload.durable().then_some(dir.as_path()))
                .expect("manager builds");
        let script = Script::new(workload, DEFAULT_SEED);
        let mut checker = Checker::new();
        let steps = script.prologue().into_iter().chain((0..2).flat_map(|i| script.iteration(i)));
        for step in steps {
            let reply = manager.handle_line(&step.line);
            if let Err(why) = checker.check(&step, reply.as_bytes()) {
                panic!("{}: {} failed: {why}", workload.name(), step.kind.name());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn scripts_are_a_pure_function_of_the_seed() {
    for workload in Workload::ALL {
        let a = Script::new(workload, DEFAULT_SEED);
        let b = Script::new(workload, DEFAULT_SEED);
        assert_eq!(a.hash(), b.hash(), "{}", workload.name());
        let lines =
            |s: &Script| s.iteration(7).into_iter().map(|step| step.line).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b), "{}", workload.name());
        let other = Script::new(workload, HELD_OUT_SEED);
        assert_ne!(a.hash(), other.hash(), "{}", workload.name());
    }
}

#[test]
fn cold_workloads_never_repeat_a_statement() {
    for workload in [Workload::SensorCold, Workload::FecCold] {
        let script = Script::new(workload, DEFAULT_SEED);
        let statements: std::collections::BTreeSet<String> = (0..200)
            .flat_map(|i| script.iteration(i))
            .filter(|step| step.line.contains("run_query"))
            .map(|step| step.line.split("\"sql\":").nth(1).expect("sql field").to_string())
            .collect();
        assert_eq!(statements.len(), 200, "{}", workload.name());
    }
}

/// `BENCHMARK.json` is written by hand; the driver's tables are the source.
#[test]
fn benchmark_json_lists_what_the_driver_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        let text =
            |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
        manifest
            .get(key)
            .and_then(Json::as_array)
            .expect("a metric list")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect()
    };
    let expected = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
        defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into())).collect()
    };
    assert_eq!(listed("end_to_end"), expected(&END_TO_END));
    assert_eq!(listed("per_layer"), expected(&PER_LAYER));
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_array)
        .expect("a workload list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}
