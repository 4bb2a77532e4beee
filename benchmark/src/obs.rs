//! Instrument overhead on one reference cell (optical4 / uniform / 0.10
//! on the paper's 8x8 mesh): host time with each instrument attached,
//! divided by host time with none. The end-to-end passes run with every
//! instrument off, so these ratios move no end-to-end metric; they put a
//! number on DESIGN.md's "one branch when off, cheap when on" claims.

use crate::spans::{SpanId, Tracer};
use crate::stats::floor;
use phastlane_lab::runner::build_network;
use phastlane_lab::scheduler::{run_lab, run_lab_with};
use phastlane_lab::LabSpec;
use phastlane_netsim::geometry::Mesh;
use phastlane_netsim::harness::{run_synthetic_observed, SyntheticOptions};
use phastlane_netsim::network::Network;
use phastlane_netsim::obs::{
    EventSink, FlightRecorder, MetricsCollector, PhaseProfiler, TraceBuffer,
};
use phastlane_traffic::synthetic::BernoulliTraffic;
use phastlane_traffic::Pattern;
use std::hint::black_box;

const OPTS: SyntheticOptions = SyntheticOptions {
    warmup: 1_000,
    measure: 5_000,
    drain: 2_000,
};
const RATE: f64 = 0.10;
/// Off/on rounds per instrument; the ratio is between each variant's
/// fastest round (contention on the host only ever adds time).
const ROUNDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Instrument {
    Off,
    Profiler,
    Trace,
    Flight,
    Metrics,
}

impl Instrument {
    fn span_name(self) -> &'static str {
        match self {
            Instrument::Off => "obs.cell_off",
            Instrument::Profiler => "obs.cell_profiler",
            Instrument::Trace => "obs.cell_trace",
            Instrument::Flight => "obs.cell_flight",
            Instrument::Metrics => "obs.cell_metrics",
        }
    }
}

/// Instrument-on ÷ instrument-off host time.
#[derive(Debug, Clone, Copy)]
pub struct Ratios {
    pub profiler: f64,
    pub trace: f64,
    pub flight: f64,
    pub metrics: f64,
    pub progress: f64,
}

fn cell(seed: u64, instrument: Instrument, tracer: &mut Tracer, parent: SpanId) -> f64 {
    let mesh = Mesh::PAPER;
    let mut net = build_network("optical4", mesh, None).expect("optical4 is a known network");
    let mut workload = BernoulliTraffic::new(mesh, Pattern::Uniform, RATE, seed);
    let mut metrics = None;
    match instrument {
        Instrument::Off => {}
        Instrument::Profiler => {
            net.set_phase_profiler(PhaseProfiler::enabled(PhaseProfiler::DEFAULT_SAMPLE_EVERY))
        }
        Instrument::Trace => net.set_trace(TraceBuffer::ring(65_536)),
        Instrument::Flight => net.set_flight_recorder(FlightRecorder::new(seed, 64)),
        Instrument::Metrics => metrics = Some(MetricsCollector::new(100, mesh.nodes())),
    }
    let span = tracer.open(Some(parent), None, "netsim", instrument.span_name());
    black_box(run_synthetic_observed(
        &mut net,
        &mut workload,
        OPTS,
        metrics.as_mut(),
    ));
    tracer.close(span);
    tracer.span(span).duration_ns() as f64
}

/// The same cell as a one-job lab, with and without a progress sink.
fn lab_cell(spec: &LabSpec, progress: bool, tracer: &mut Tracer, parent: SpanId) -> f64 {
    let name = if progress {
        "obs.lab_progress"
    } else {
        "obs.lab_off"
    };
    let span = tracer.open(Some(parent), None, "lab", name);
    if progress {
        let sink = EventSink::new(Box::new(std::io::sink()), EventSink::DEFAULT_CAPACITY);
        black_box(run_lab_with(spec, 1, Some(&sink))).expect("reference cell runs");
        sink.finish();
    } else {
        black_box(run_lab(spec, 1)).expect("reference cell runs");
    }
    tracer.close(span);
    tracer.span(span).duration_ns() as f64
}

pub fn measure(seed: u64, tracer: &mut Tracer, parent: SpanId) -> Ratios {
    let spec = LabSpec::parse(&format!(
        "name obs-reference\nmesh 8x8\nseed {seed}\nnets optical4\npatterns uniform\n\
         rates {RATE}\nwarmup {}\nmeasure {}\ndrain {}\n",
        OPTS.warmup, OPTS.measure, OPTS.drain
    ))
    .expect("reference spec parses");
    let instruments = [
        Instrument::Off,
        Instrument::Profiler,
        Instrument::Trace,
        Instrument::Flight,
        Instrument::Metrics,
    ];
    let mut cells = vec![Vec::with_capacity(ROUNDS); instruments.len()];
    let mut lab = [Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS)];
    // Round-robin, so slow drift of the host hits every variant alike.
    for _ in 0..ROUNDS {
        for (samples, &instrument) in cells.iter_mut().zip(&instruments) {
            samples.push(cell(seed, instrument, tracer, parent));
        }
        for (samples, progress) in lab.iter_mut().zip([false, true]) {
            samples.push(lab_cell(&spec, progress, tracer, parent));
        }
    }
    let floor = |samples: &[f64]| floor(samples.iter().copied());
    let off = floor(&cells[0]);
    Ratios {
        profiler: floor(&cells[1]) / off,
        trace: floor(&cells[2]) / off,
        flight: floor(&cells[3]) / off,
        metrics: floor(&cells[4]) / off,
        progress: floor(&lab[1]) / floor(&lab[0]),
    }
}
