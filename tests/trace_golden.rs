//! Golden test for the observability layer: a 4-GPU traced training run
//! must export a well-formed Chrome Trace Event Format document.
//!
//! "Well-formed" here means the structural invariants Perfetto relies on:
//! every payload event carries `name`/`ph`/`ts`/`pid`/`tid`; `B`/`E`
//! events pair up with stack discipline per track; timestamps are
//! monotonic per track in file order; flow `s`/`f` events reference
//! tracks that exist and pair by `id`; and every device and host worker
//! owns at least one named track.

use culda::corpus::SynthSpec;
use culda::gpusim::Platform;
use culda::metrics::{Json, MetricsRegistry, TraceSink, HOST_PID, SIM_PID, SYNC_TID};
use culda::multigpu::{CuldaTrainer, TrainerConfig};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const GPUS: usize = 4;
const ITERS: u32 = 2;

/// Runs a small traced 4-GPU session and returns the exported documents.
fn traced_run() -> (String, String) {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 160;
    spec.vocab_size = 220;
    spec.avg_doc_len = 22.0;
    spec.seed = 11;
    let corpus = spec.generate();
    let cfg = TrainerConfig::builder(8, Platform::pascal().with_gpus(GPUS))
        .iterations(ITERS)
        .score_every(0)
        .seed(3)
        .build()
        .unwrap();
    let mut trainer = CuldaTrainer::try_new(&corpus, cfg).unwrap();
    let sink = Arc::new(TraceSink::new());
    let registry = Arc::new(MetricsRegistry::new());
    trainer.attach_observability(Some(sink.clone()), Some(registry.clone()));
    for _ in 0..ITERS {
        trainer.try_step().unwrap();
    }
    (sink.export_chrome_json(), registry.snapshot_json().render())
}

fn f(e: &Json, key: &str) -> f64 {
    e.get(key).and_then(|v| v.as_f64()).unwrap()
}

fn s<'a>(e: &'a Json, key: &str) -> &'a str {
    e.get(key).and_then(|v| v.as_str()).unwrap()
}

#[test]
fn traced_training_exports_well_formed_chrome_trace() {
    let (trace_json, metrics_json) = traced_run();

    let doc = Json::parse(&trace_json).expect("trace must parse as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("document must hold a traceEvents array");
    assert!(!events.is_empty());

    // Named tracks come from `M` thread_name metadata.
    let mut named_tracks: HashSet<(u32, u32)> = HashSet::new();
    for e in events {
        if s(e, "ph") == "M" && s(e, "name") == "thread_name" {
            named_tracks.insert((f(e, "pid") as u32, f(e, "tid") as u32));
        }
    }

    // One track per simulated device, one per host worker, plus the
    // dedicated phi-sync track.
    for dev in 0..GPUS as u32 {
        assert!(
            named_tracks.contains(&(SIM_PID, dev)),
            "missing gpu{dev} track"
        );
        assert!(
            named_tracks.contains(&(HOST_PID, dev)),
            "missing worker{dev} track"
        );
    }
    assert!(
        named_tracks.contains(&(SIM_PID, SYNC_TID)),
        "missing phi-sync track"
    );

    // Structural checks over the payload events.
    let mut stacks: HashMap<(u32, u32), Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<(u32, u32), f64> = HashMap::new();
    let mut flow_ids: HashMap<u64, (u32, u32)> = HashMap::new(); // id -> (starts, finishes)
    let mut kernel_spans = 0;
    let mut host_spans = 0;
    let mut sync_spans = 0;
    let mut flow_device_tids: HashSet<u32> = HashSet::new();

    for e in events {
        let ph = s(e, "ph");
        if ph == "M" {
            continue;
        }
        // Every payload event is fully addressed.
        let name = s(e, "name");
        assert!(!name.is_empty());
        let ts = f(e, "ts");
        assert!(ts.is_finite() && ts >= 0.0, "bad ts on {name}");
        let track = (f(e, "pid") as u32, f(e, "tid") as u32);
        assert!(
            named_tracks.contains(&track),
            "{name} sits on unnamed track {track:?}"
        );

        // Per-track timestamps are monotonic in file order.
        let prev = last_ts.entry(track).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *prev, "ts regressed on track {track:?} at {name}");
        *prev = ts;

        match ph {
            "B" => {
                stacks.entry(track).or_default().push(name.to_string());
                if track.0 == SIM_PID && track.1 != SYNC_TID {
                    // Kernel spans carry their phase as `cat` and the
                    // grid in `args`.
                    assert!(!s(e, "cat").is_empty(), "kernel span without phase cat");
                    assert!(
                        e.get("args").and_then(|a| a.get("grid")).is_some(),
                        "kernel span {name} without grid arg"
                    );
                    kernel_spans += 1;
                } else if track.0 == HOST_PID {
                    host_spans += 1;
                } else {
                    sync_spans += 1;
                }
            }
            "E" => {
                let open = stacks
                    .entry(track)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("E without open B on track {track:?}"));
                assert_eq!(open, name, "mismatched B/E pair on track {track:?}");
            }
            "i" => assert_eq!(s(e, "s"), "t", "instant without thread scope"),
            "s" | "f" => {
                let id = f(e, "id") as u64;
                let entry = flow_ids.entry(id).or_insert((0, 0));
                if ph == "s" {
                    entry.0 += 1;
                } else {
                    entry.1 += 1;
                    assert_eq!(s(e, "bp"), "e", "flow finish must bind to slice end");
                }
                if track.0 == SIM_PID && track.1 != SYNC_TID {
                    flow_device_tids.insert(track.1);
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // Every B was closed.
    for (track, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "unclosed spans {stack:?} on track {track:?}"
        );
    }
    // Every flow id pairs exactly one start with one finish.
    assert!(!flow_ids.is_empty(), "no flow events in a multi-GPU trace");
    for (id, (starts, finishes)) in &flow_ids {
        assert_eq!(
            (*starts, *finishes),
            (1, 1),
            "flow {id} is not a single s→f pair"
        );
    }
    // The phi reduce/broadcast flows touch every device track.
    assert_eq!(
        flow_device_tids.len(),
        GPUS,
        "phi-sync flows must connect all participating devices"
    );
    assert!(
        kernel_spans >= GPUS * ITERS as usize,
        "too few kernel spans"
    );
    assert!(
        host_spans >= GPUS * ITERS as usize,
        "too few host iteration spans"
    );
    assert!(sync_spans >= ITERS as usize, "too few phi-sync spans");

    // The metrics snapshot is valid JSON with live kernel counters.
    let metrics = Json::parse(&metrics_json).expect("metrics snapshot must parse");
    let launches = metrics
        .get("counters")
        .and_then(|c| c.get("kernel.launches"))
        .and_then(|v| v.as_f64())
        .expect("kernel.launches counter present");
    assert!(launches >= (GPUS * ITERS as usize) as f64);
    assert!(
        metrics
            .get("histograms")
            .and_then(|h| h.as_obj())
            .is_some_and(|h| h.iter().any(|(k, _)| k.starts_with("kernel.gbps."))),
        "per-kernel bandwidth histograms present"
    );
}
