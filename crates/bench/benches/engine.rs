//! Workflow-engine benchmarks: YAML parsing, validation, dispatch, and the
//! synchronous-vs-background publication ablation (see bin `ablation_mixing`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sdl_color::{DyeSet, MixKind};
use sdl_conf::from_yaml;
use sdl_datapub::{publish_sync, AcdcPortal, BlobStore, FlowJob, PublishFlow, SampleRecord};
use sdl_desim::RngHub;
use sdl_wei::{Engine, Payload, SeqClock, Workcell, WorkcellConfig, Workflow, RPL_WORKCELL_YAML};
use std::sync::Arc;

fn bench_parsing(c: &mut Criterion) {
    c.bench_function("parse_workcell_yaml", |b| {
        b.iter(|| black_box(WorkcellConfig::from_yaml(black_box(RPL_WORKCELL_YAML)).unwrap()))
    });
    c.bench_function("parse_yaml_value", |b| {
        b.iter(|| black_box(from_yaml(black_box(RPL_WORKCELL_YAML)).unwrap()))
    });
}

fn engine() -> Engine {
    let cfg = WorkcellConfig::from_yaml(RPL_WORKCELL_YAML).unwrap();
    let cell = Workcell::instantiate(cfg, DyeSet::cmyk(), MixKind::BeerLambert).unwrap();
    Engine::new(cell, RngHub::new(1))
}

fn bench_dispatch(c: &mut Criterion) {
    // A plate-logistics cycle: newplate steps minus the camera (no render
    // cost — this isolates engine overhead).
    let wf = Workflow::from_yaml(
        "name: logistics\nmodules: [sciclops, pf400, barty]\nsteps:\n  - name: Get\n    module: sciclops\n    action: get_plate\n  - name: Stage\n    module: pf400\n    action: transfer\n    args: {source: sciclops.exchange, target: camera.nest}\n  - name: Trash\n    module: pf400\n    action: transfer\n    args: {source: camera.nest, target: trash}\n  - name: Drain\n    module: barty\n    action: drain_colors\n  - name: Fill\n    module: barty\n    action: fill_colors\n",
    )
    .unwrap();
    let mut g = c.benchmark_group("engine");
    g.sample_size(20);
    g.bench_function("workflow_5_steps", |b| {
        b.iter_batched(
            engine,
            |mut e| {
                let mut clock = SeqClock::new();
                black_box(e.run_workflow(&mut clock, &wf, &Payload::none()).unwrap());
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn sample_record(i: u32) -> FlowJob {
    FlowJob {
        records: vec![SampleRecord {
            experiment_id: "bench".into(),
            run: 1,
            sample: i,
            well: "A1".into(),
            ratios: vec![0.2; 4],
            volumes_ul: vec![8.0; 4],
            measured: [120, 119, 121],
            target: [120, 120, 120],
            score: 1.4,
            best_so_far: 1.4,
            elapsed_s: 228.0,
            batch_wall_s: None,
            image_ref: None,
        }
        .to_value()],
        image: None,
    }
}

fn bench_publication(c: &mut Criterion) {
    // Ablation: synchronous publication vs the background flow (per 100
    // records). The background worker moves serialization off the control
    // loop, which is what keeps publication out of TWH.
    let mut g = c.benchmark_group("publish_100_records");
    g.sample_size(20);
    g.bench_function("synchronous", |b| {
        b.iter(|| {
            let portal = AcdcPortal::new();
            let store = BlobStore::in_memory();
            for i in 0..100 {
                publish_sync(sample_record(i), &portal, &store).unwrap();
            }
            black_box(portal.len())
        })
    });
    g.bench_function("background_flow", |b| {
        b.iter(|| {
            let portal = Arc::new(AcdcPortal::new());
            let store = Arc::new(BlobStore::in_memory());
            let flow = PublishFlow::start(Arc::clone(&portal), Arc::clone(&store));
            for i in 0..100 {
                flow.publish(sample_record(i));
            }
            flow.flush();
            black_box(portal.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_parsing, bench_dispatch, bench_publication);
criterion_main!(benches);
