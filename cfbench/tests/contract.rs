//! The benchmark's output contract, at a tiny size: every workload prints
//! every metric `BENCHMARK.json` declares, with its unit.

use cfbench::{run, Params, Size, Workload, END_TO_END, PER_LAYER};
use cohfree_sim::Json;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for (trace, list) in [(false, END_TO_END), (true, PER_LAYER)] {
            let p = Params {
                workload: w,
                seed: 11,
                seconds: 0.0,
                trace,
                size: Size::TINY,
                trace_dir: None,
            };
            let r = run(&p);
            assert!(r.correct(), "{w:?} trace={trace}: {:?}", r.notes);
            let line = Json::parse(&r.result_json()).expect("result line is JSON");
            let metrics = line
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), list.len(), "{w:?} trace={trace}");
            for (name, unit) in list {
                let m = line
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{w:?} trace={trace}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        }
    }
}
