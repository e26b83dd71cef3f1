//! Per-layer metrics of the traced run, each timed from outside by
//! calling a layer's public functions: the packed MAC kernel and its
//! ADC reads, the forward pass around them, the BIN1 codec, the served
//! node's own statistics, the fleet's partial round trips, the compile
//! passes and the cost model. The README maps each to the end-to-end
//! metric it should move.

use std::hint::black_box;
use std::time::Instant;

use imc_cost::{inference_cost, mlp_shapes, DesignPoint, Variant};
use imc_obs::MetricValue;
use imc_serve::protocol::{InferReply, InferRequest, Request, Response};
use imc_serve::wire;
use neural::imc_exec::packed::{imc_matmul_packed, imc_matmul_packed_partial, PlaneNoise};
use neural::tensor::Tensor;

use crate::check::{self, ServingModel};
use crate::compile::CompileLog;
use crate::paced::{self, GenStats, Paced};
use crate::report::{Checks, Metrics, Tracer};
use crate::stats::{median, quantile, sorted, us, SplitMix};

/// Best mean time per call (µs) over `rounds` rounds of `calls` calls;
/// each round is one span named after the function it times.
fn best_per_call_us(
    tracer: &mut Tracer,
    name: &'static str,
    rounds: usize,
    calls: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut best = f64::INFINITY;
    for r in 0..rounds {
        let t0 = Instant::now();
        tracer.span(name, r as u64, || (0..calls).for_each(&mut f));
        best = best.min(us(t0.elapsed()) / calls as f64);
    }
    best
}

/// The packed kernel, its ADC reads and the forward pass around it.
pub fn kernel(m: &ServingModel, inputs: &[Vec<f32>], tracer: &mut Tracer) -> Metrics {
    let mut out = Metrics::default();
    let ins: Vec<Vec<Tensor>> = inputs
        .iter()
        .take(16)
        .map(|x| check::mac_inputs(m, x))
        .collect();
    let n = ins.len();
    let fc1 = &m.layers[0];
    let mac = |l: usize, i: usize, noise: &PlaneNoise, cfg| {
        let layer = &m.layers[l];
        black_box(imc_matmul_packed(
            &ins[i % n][l],
            &layer.planes,
            noise,
            &m.adcs,
            cfg,
            layer.key,
        ));
    };
    let fc1_us = best_per_call_us(tracer, "packed.imc_matmul_packed.fc1", 20, 16, |i| {
        mac(0, i, &m.noise, &m.cfg);
    });
    let fc2_us = best_per_call_us(tracer, "packed.imc_matmul_packed.fc2", 20, 256, |i| {
        mac(1, i, &m.noise, &m.cfg);
    });
    let mut cfg0 = m.cfg;
    cfg0.noise_scale = 0.0;
    let noise0 = PlaneNoise::for_config(&cfg0);
    let fc1_off_us = best_per_call_us(
        tracer,
        "packed.imc_matmul_packed.fc1_noise_off",
        20,
        16,
        |i| {
            mac(0, i, &noise0, &cfg0);
        },
    );
    let half = 0..fc1.planes.chunks.len() / 2;
    let partial_us = best_per_call_us(
        tracer,
        "packed.imc_matmul_packed_partial.fc1",
        20,
        16,
        |i| {
            black_box(imc_matmul_packed_partial(
                &ins[i % n][0],
                &fc1.planes,
                &m.noise,
                &m.adcs,
                &m.cfg,
                fc1.key,
                half.clone(),
            ));
        },
    );
    let pool: Vec<Tensor> = inputs
        .iter()
        .take(n)
        .map(|x| Tensor::from_vec(&[1, x.len()], x.clone()))
        .collect();
    let net = m.served.network();
    let forward_us = best_per_call_us(tracer, "imc_exec.forward", 20, 16, |i| {
        black_box(net.forward(&pool[i % n]));
    });
    let conversions = m.conversions_per_inf() as f64;
    out.set("packed.fc1_us", fc1_us, "us");
    out.set("packed.fc2_us", fc2_us, "us");
    out.set("packed.fc1_noise_off_us", fc1_off_us, "us");
    out.set("packed.partial_us", partial_us, "us");
    out.set("packed.conversions_per_inf", conversions, "count");
    out.set(
        "packed.ns_per_conversion",
        (fc1_us + fc2_us) * 1e3 / conversions,
        "ns",
    );
    out.set(
        "packed.plane_bytes",
        m.served.prepack().bytes as f64,
        "bytes",
    );
    out.set("imc_exec.forward_us", forward_us, "us");
    out.set("imc_exec.glue_us", forward_us - fc1_us - fc2_us, "us");

    // One H4B and one L4B read per value, over each block's unit domain.
    let (h, l) = (m.adcs.0.reader(), m.adcs.1.reader());
    let rows = m.cfg.rows as f64;
    let mut rng = SplitMix::new(0xADC);
    let vals: Vec<(f64, f64)> = (0..4096)
        .map(|_| {
            let u = rng.unit_f64();
            (-8.0 * rows + 15.0 * rows * u, 15.0 * rows * rng.unit_f64())
        })
        .collect();
    let pair_us = best_per_call_us(tracer, "adc.read_units", 20, vals.len(), |i| {
        let (vh, vl) = vals[i];
        black_box(h.read_units(black_box(vh)) + l.read_units(black_box(vl)));
    });
    out.set("adc.read_units_ns", pair_us * 1e3 / 2.0, "ns");

    let point = DesignPoint::serving_default(Variant::ChgFe);
    let shapes = mlp_shapes(784, 64, 10);
    let cost_us = best_per_call_us(tracer, "imc_cost.inference_cost", 20, 1000, |_| {
        black_box(inference_cost(black_box(&point), black_box(&shapes)));
    });
    out.set("cost.estimate_ns", cost_us * 1e3, "ns");
    out
}

/// BIN1 codec time per frame for one inference request and its reply;
/// each decoded frame must equal what was encoded.
pub fn wire_codec(x: &[f32], logits: &[f32], checks: &mut Checks, tracer: &mut Tracer) -> Metrics {
    let req = Request::Infer(InferRequest {
        id: 7,
        input: x.to_vec(),
        trace: None,
    });
    let resp = Response::Output(InferReply {
        id: 7,
        logits: logits.to_vec(),
        class: neural::imc_exec::argmax_total(logits),
        bank: 3,
        batch: 2,
        queue_us: 900,
        service_us: 300,
        trace_id: 0,
    });
    let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
    let mut out = Metrics::default();
    let enc_req = best_per_call_us(tracer, "wire.encode_request", 20, 512, |_| {
        wire::encode_request(black_box(&req), &mut req_buf);
    });
    let dec_req = best_per_call_us(tracer, "wire.decode_request", 20, 512, |_| {
        black_box(wire::decode_request(black_box(&req_buf[4..])).is_ok());
    });
    let enc_resp = best_per_call_us(tracer, "wire.encode_response", 20, 512, |_| {
        wire::encode_response(black_box(&resp), &mut resp_buf);
    });
    let dec_resp = best_per_call_us(tracer, "wire.decode_response", 20, 512, |_| {
        black_box(wire::decode_response(black_box(&resp_buf[4..])).is_ok());
    });
    checks.require(
        wire::decode_request(&req_buf[4..]).ok() == Some(req),
        || "BIN1 request frame does not decode to what was encoded".into(),
    );
    checks.require(
        wire::decode_response(&resp_buf[4..]).ok() == Some(resp),
        || "BIN1 response frame does not decode to what was encoded".into(),
    );
    out.set("wire.encode_request_ns", enc_req * 1e3, "ns");
    out.set("wire.decode_request_ns", dec_req * 1e3, "ns");
    out.set("wire.encode_response_ns", enc_resp * 1e3, "ns");
    out.set("wire.decode_response_ns", dec_resp * 1e3, "ns");
    out
}

/// How late the open-loop generator ran, and the client round trip.
pub fn generator(g: &GenStats) -> Metrics {
    let mut out = Metrics::default();
    let lag = sorted(g.lag_us.clone());
    out.set("client.rtt_p50_us", median(&g.rtt_us), "us");
    out.set("loadgen.lag_p50_us", quantile(&lag, 0.5), "us");
    out.set(
        "loadgen.lag_max_us",
        *lag.last().expect("at least one send"),
        "us",
    );
    out
}

/// Queue, batch and request latency as the served node reports them
/// through `Client::stats`.
pub fn serve_stats(p: &mut Paced, tracer: &mut Tracer) -> Result<Metrics, String> {
    let st = tracer
        .span("client.stats", 0, || p.clients[0].stats())
        .map_err(|e| format!("stats: {e}"))?;
    let mut out = Metrics::default();
    let (req, batch) = (
        st.request_latency.p50_us as f64,
        st.batch_latency.p50_us as f64,
    );
    out.set("serve.request_p50_us", req, "us");
    out.set("serve.batch_p50_us", batch, "us");
    out.set("serve.queue_wait_us", req - batch, "us");
    out.set(
        "serve.batch_size_mean",
        st.completed as f64 / st.batches.max(1) as f64,
        "count",
    );
    Ok(out)
}

/// Partials per routed inference, the shard-0 partial round trip sent
/// straight to a replica, and the router's own share of the client
/// round trip (minus the partial round trips on its critical path:
/// one per MAC layer, the shards of a layer running in parallel).
pub fn fleet(
    p: &Paced,
    m: &ServingModel,
    g: &GenStats,
    x: &[f32],
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    let snap = imc_obs::registry().snapshot();
    let partials: u64 = snap
        .entries
        .iter()
        .filter(|e| e.name == "fleet.shard_requests")
        .map(|e| match e.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum();
    let infers = snap.counter("fleet.infer_total").unwrap_or(0).max(1);
    let mut replica = paced::connect(p.servers[0].addr())?;
    let ins = check::mac_inputs(m, x);
    let mut rtt_p50 = Vec::with_capacity(ins.len());
    for (layer, (codes, l)) in ins.iter().zip(&m.layers).enumerate() {
        let hi = l.planes.chunks.len() / 2;
        let mut rtt = Vec::with_capacity(200);
        for id in 0..200 {
            let t0 = Instant::now();
            tracer
                .span("client.partial", id, || {
                    replica.partial(id, layer, 0, hi, codes.data().to_vec())
                })
                .map_err(|e| format!("partial to replica: {e}"))?;
            rtt.push(us(t0.elapsed()));
        }
        rtt_p50.push(median(&rtt));
    }
    let mut out = Metrics::default();
    out.set(
        "fleet.partials_per_inf",
        partials as f64 / infers as f64,
        "count",
    );
    out.set("fleet.partial_rtt_p50_us", rtt_p50[0], "us");
    out.set(
        "fleet.router_us",
        median(&g.rtt_us) - rtt_p50.iter().sum::<f64>(),
        "us",
    );
    Ok(out)
}

/// Compile pass times (medians over the compiles), programming totals,
/// remap and predict outcomes, and the `par-exec` pool's busy share.
pub fn compile(c: &CompileLog) -> Metrics {
    let med = |f: &dyn Fn(&imc_compile::pipeline::CompileOutput) -> f64| {
        median(&c.outputs.iter().map(f).collect::<Vec<_>>())
    };
    let mut out = Metrics::default();
    out.set(
        "compile.placement_us",
        med(&|o| o.timings.placement_s * 1e6),
        "us",
    );
    out.set(
        "compile.programming_us",
        med(&|o| o.timings.programming_s * 1e6),
        "us",
    );
    out.set("compile.remap_us", med(&|o| o.timings.remap_s * 1e6), "us");
    out.set("compile.wear_us", med(&|o| o.timings.wear_s * 1e6), "us");
    out.set(
        "compile.predict_us",
        med(&|o| o.timings.predict_s * 1e6),
        "us",
    );
    out.set("compile.cells", med(&|o| o.totals.cells as f64), "count");
    out.set("compile.pulses", med(&|o| o.totals.pulses as f64), "count");
    out.set(
        "compile.unconverged",
        med(&|o| o.totals.unconverged as f64),
        "count",
    );
    out.set(
        "compile.relocated_columns",
        med(&|o| o.image.manifest.faults.relocated.len() as f64),
        "count",
    );
    out.set(
        "compile.oracle_agreement",
        med(&|o| o.image.manifest.oracle_agreement.unwrap_or(0.0)),
        "ratio",
    );
    out.set("exec.busy_share", c.busy_share, "ratio");
    out
}
