//! `kernel`: one thread calls `QNetwork::forward` of the serving model
//! over a seeded input pool. No server and no pool threads take part,
//! so nearly all time is the packed MAC kernel.

use std::hint::black_box;
use std::time::Instant;

use imc_serve::model::MNIST_FEATURES;
use neural::tensor::Tensor;

use crate::check::{self, ServingModel};
use crate::report::{Checks, Tracer};
use crate::stats::{input_pool, process_cpu_s, us, Round};
use crate::RunLog;

/// Distinct inputs per run.
const POOL: usize = 64;
/// Inferences per round: about 40 ms of work, so a run holds hundreds
/// of rounds and catches the host's quiet stretches, while the round's
/// p90 still has a dozen samples beyond it.
const ROUND: usize = 128;

pub struct Kernel {
    model: ServingModel,
    pool: Vec<Tensor>,
    oracle: Vec<Vec<f32>>,
}

/// Builds the model, its reference-path oracle for every pool input
/// (checking packed == reference on each MAC call), the lossless-ADC
/// property and the planted-error self-test, then warms up one round.
pub fn setup(seed: u64, checks: &mut Checks) -> Kernel {
    let model = ServingModel::build();
    let inputs = input_pool(seed, POOL, MNIST_FEATURES);
    let oracle = inputs
        .iter()
        .map(|x| check::reference_forward(&model, x, checks))
        .collect();
    check::lossless_property(&model, &inputs, checks);
    check::self_test(&model, &inputs[0], checks);
    let pool = inputs
        .iter()
        .map(|x| Tensor::from_vec(&[1, MNIST_FEATURES], x.clone()))
        .collect();
    let k = Kernel {
        model,
        pool,
        oracle,
    };
    let mut warm = Tracer::new(Instant::now(), 0, false);
    round(&k, &mut warm);
    k
}

/// One round: `ROUND` timed forwards, verified after the round's clocks
/// stop. Returns the round and its failed count.
fn round(k: &Kernel, tracer: &mut Tracer) -> (Round, usize) {
    let net = k.model.served.network();
    let mut outs = Vec::with_capacity(ROUND);
    let mut lat = Vec::with_capacity(ROUND);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    for i in 0..ROUND {
        let x = &k.pool[i % POOL];
        let s = Instant::now();
        let y = tracer.span("imc_exec.forward", i as u64, || net.forward(black_box(x)));
        lat.push(us(s.elapsed()));
        outs.push(y);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let mut ok_lat = Vec::with_capacity(ROUND);
    for (i, y) in outs.iter().enumerate() {
        if check::same_bits(y.data(), &k.oracle[i % POOL]) {
            ok_lat.push(lat[i]);
        }
    }
    let failed = ROUND - ok_lat.len();
    let r = Round {
        ops: ROUND,
        work: ROUND as f64,
        wall_s,
        cpu_s,
        lat_us: ok_lat,
    };
    (r, failed)
}

/// Runs whole rounds until `seconds` have passed (at least two); with
/// `trace`, every second round records spans.
pub fn run(k: &Kernel, seconds: f64, trace: bool, tracer: &mut Tracer) -> RunLog {
    let mut log = RunLog::default();
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < 2 || t0.elapsed().as_secs_f64() < seconds {
        tracer.enabled = trace && i % 2 == 1;
        let (r, failed) = round(k, tracer);
        log.push(r, failed, tracer.enabled);
        i += 1;
    }
    tracer.enabled = false;
    log
}
