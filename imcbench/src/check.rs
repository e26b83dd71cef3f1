//! Oracles computed apart from the fast paths: the serving model's
//! forward pass rebuilt on `imc_matmul_reference`, the lossless-ADC
//! integer dot-product property of the packed kernel, and the paper's
//! TOPS/W anchors of the cost model.

use std::sync::Arc;

use imc_core::adc::{h4b_adc, l4b_adc, AdcMode, SarAdc};
use imc_cost::{DesignPoint, Variant};
use imc_serve::model::{ServeModel, DEFAULT_CLASSES, DEFAULT_HIDDEN, DEFAULT_SEED, MNIST_FEATURES};
use neural::imc_exec::packed::{
    imc_matmul_packed, imc_matmul_reference, pack_planes_cached, PackedPlanes, PlaneNoise,
    StreamKey,
};
use neural::imc_exec::{ImcConfig, ImcDesign};
use neural::layers::Linear;
use neural::models::mlp;
use neural::quant::{quantize_activations, quantize_weights, QuantizedWeights};
use neural::tensor::Tensor;

use crate::report::Checks;

/// The design every inference workload serves: the paper's ChgFe macro.
pub const DESIGN: ImcDesign = ImcDesign::ChgFe;

/// One MAC layer of the serving model, rebuilt from the float network
/// the way `QNetwork` builds it.
pub struct MacLayer {
    pub qw: QuantizedWeights,
    pub bias: Vec<f32>,
    pub planes: Arc<PackedPlanes>,
    pub key: StreamKey,
}

/// The 784→64→10 serving model twice over: the served `ServeModel`
/// (whose `QNetwork::forward` is the fast path under test) and its MAC
/// layers' raw codes, planes and ADCs for the reference path.
pub struct ServingModel {
    pub served: ServeModel,
    pub cfg: ImcConfig,
    pub noise: PlaneNoise,
    pub adcs: (SarAdc, SarAdc),
    pub layers: Vec<MacLayer>,
}

impl ServingModel {
    pub fn build() -> Self {
        let served = ServeModel::synthetic(DESIGN, DEFAULT_SEED);
        let cfg = *served.network().config();
        let seq = mlp(
            MNIST_FEATURES,
            DEFAULT_HIDDEN,
            DEFAULT_CLASSES,
            DEFAULT_SEED,
        );
        let layers = seq
            .layers()
            .iter()
            .filter_map(|l| l.as_any().downcast_ref::<Linear>())
            .enumerate()
            .map(|(i, lin)| {
                let qw = quantize_weights(&lin.weight.value, cfg.weight_bits);
                MacLayer {
                    planes: pack_planes_cached(&qw, cfg.rows),
                    qw,
                    bias: lin.bias.value.data().to_vec(),
                    key: StreamKey {
                        seed: cfg.seed,
                        layer: i as u32,
                    },
                }
            })
            .collect();
        Self {
            served,
            cfg,
            noise: PlaneNoise::for_config(&cfg),
            adcs: (
                h4b_adc(cfg.adc_bits, cfg.rows, 0.0, 1.0),
                l4b_adc(cfg.adc_bits, cfg.rows, 0.0, 1.0),
            ),
            layers,
        }
    }

    /// Chunk conversions (one H4B + one L4B read each) per inference.
    pub fn conversions_per_inf(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| {
                u64::from(self.cfg.input_bits)
                    * l.planes.chunks.len() as u64
                    * l.planes.out_features as u64
            })
            .sum()
    }
}

/// Activation codes of a `[1, n]` input as the kernels take them, plus
/// the dequantization scale.
pub fn act_codes(x: &[f32], bits: u32) -> (Tensor, f32) {
    let qa = quantize_activations(&Tensor::from_vec(&[1, x.len()], x.to_vec()), bits);
    let codes = qa.q.iter().map(|&v| v as f32).collect();
    (Tensor::from_vec(&[1, x.len()], codes), qa.scale)
}

/// Whether two outputs are equal bit for bit.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `QNetwork::forward` of one input rebuilt on the scalar reference MAC:
/// quantize, `imc_matmul_reference`, dequantize + bias, ReLU between the
/// layers. Every MAC call is also run on the packed kernel with the same
/// `StreamKey`, and the two must agree bit for bit under full noise.
pub fn reference_forward(m: &ServingModel, x: &[f32], checks: &mut Checks) -> Vec<f32> {
    let mut cur = x.to_vec();
    for (li, l) in m.layers.iter().enumerate() {
        let (codes, act_scale) = act_codes(&cur, m.cfg.input_bits);
        let units = imc_matmul_reference(&codes, &l.qw, &m.noise, &m.adcs, &m.cfg, l.key);
        let packed = imc_matmul_packed(&codes, &l.planes, &m.noise, &m.adcs, &m.cfg, l.key);
        checks.require(same_bits(units.data(), packed.data()), || {
            format!("packed MAC of layer {li} differs from imc_matmul_reference")
        });
        cur = units
            .data()
            .iter()
            .zip(&l.bias)
            .map(|(&u, &b)| u * l.qw.scale * act_scale + b)
            .collect();
        if li + 1 < m.layers.len() {
            for v in &mut cur {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
    }
    cur
}

/// The activation codes each MAC layer sees in `QNetwork::forward` of
/// one input (packed kernel, full noise).
pub fn mac_inputs(m: &ServingModel, x: &[f32]) -> Vec<Tensor> {
    let mut cur = x.to_vec();
    let mut out = Vec::with_capacity(m.layers.len());
    for l in &m.layers {
        let (codes, act_scale) = act_codes(&cur, m.cfg.input_bits);
        let units = imc_matmul_packed(&codes, &l.planes, &m.noise, &m.adcs, &m.cfg, l.key);
        cur = units
            .data()
            .iter()
            .zip(&l.bias)
            .map(|(&u, &b)| (u * l.qw.scale * act_scale + b).max(0.0))
            .collect();
        out.push(codes);
    }
    out
}

/// The smallest ADC resolution the cost model calls shift-add lossless
/// at the serving geometry (`adc_bits ≥ 4 + log2(rows)`), as an H4B/L4B
/// pair whose references put one LSB on one unit, so a noise-free
/// conversion returns the integer block sum itself.
pub fn lossless_adcs(rows: usize) -> (SarAdc, SarAdc) {
    let bits = (1..=12)
        .find(|&b| {
            DesignPoint {
                adc_bits: b,
                rows,
                ..DesignPoint::serving_default(Variant::ChgFe)
            }
            .shift_add_lossless()
        })
        .expect("some resolution up to 12 bits is lossless");
    let span = f64::from(1u32 << bits);
    assert!(
        8.0 * (rows as f64) <= span / 2.0 && 15.0 * (rows as f64) < span,
        "a {bits}-bit unit-LSB ADC must cover the block range"
    );
    (
        SarAdc::new(
            bits,
            AdcMode::TwosComplement,
            0.0,
            1.0,
            (-span / 2.0, span / 2.0),
        ),
        SarAdc::new(bits, AdcMode::Unsigned, 0.0, 1.0, (0.0, span)),
    )
}

/// The exact MAC of integer activation codes and weight codes, in i64.
pub fn integer_mac(codes: &Tensor, qw: &QuantizedWeights) -> Vec<i64> {
    let [oc, fan] = qw.shape;
    let x = codes.data();
    (0..oc)
        .map(|o| {
            (0..fan)
                .map(|r| x[r] as i64 * i64::from(qw.q[o * fan + r]))
                .sum()
        })
        .collect()
}

/// Whether a kernel output equals an integer MAC exactly.
pub fn matches_integer(kernel: &Tensor, want: &[i64]) -> bool {
    kernel.len() == want.len()
        && kernel
            .data()
            .iter()
            .zip(want)
            .all(|(&k, &w)| k.fract() == 0.0 && k as i64 == w)
}

/// The lossless property: at `noise_scale = 0` with a lossless unit-LSB
/// ADC pair, the packed kernel's MAC equals the integer dot product of
/// activation codes and weight codes. Checked on every MAC layer for
/// every input; the second layer sees the noise-free hidden activations.
pub fn lossless_property(m: &ServingModel, inputs: &[Vec<f32>], checks: &mut Checks) {
    let mut cfg0 = m.cfg;
    cfg0.noise_scale = 0.0;
    let noise0 = PlaneNoise::for_config(&cfg0);
    let adcs = lossless_adcs(m.cfg.rows);
    for x in inputs {
        let mut cur = x.clone();
        for (li, l) in m.layers.iter().enumerate() {
            let (codes, act_scale) = act_codes(&cur, m.cfg.input_bits);
            let got = imc_matmul_packed(&codes, &l.planes, &noise0, &adcs, &cfg0, l.key);
            let want = integer_mac(&codes, &l.qw);
            checks.require(matches_integer(&got, &want), || {
                format!("lossless packed MAC of layer {li} differs from the i64 dot product")
            });
            cur = want
                .iter()
                .zip(&l.bias)
                .map(|(&u, &b)| (u as f32 * l.qw.scale * act_scale + b).max(0.0))
                .collect();
        }
    }
}

/// Plants a one-code error in each comparison above and requires it to
/// be caught: a weight code off by one under the integer check, and one
/// flipped mantissa bit under the bitwise reference check.
pub fn self_test(m: &ServingModel, x: &[f32], checks: &mut Checks) {
    let l = &m.layers[0];
    let (codes, _) = act_codes(x, m.cfg.input_bits);
    let mut cfg0 = m.cfg;
    cfg0.noise_scale = 0.0;
    let got = imc_matmul_packed(
        &codes,
        &l.planes,
        &PlaneNoise::for_config(&cfg0),
        &lossless_adcs(m.cfg.rows),
        &cfg0,
        l.key,
    );
    let r = codes
        .data()
        .iter()
        .position(|&c| c != 0.0)
        .expect("a seeded input has a nonzero activation code");
    let mut planted = l.qw.clone();
    planted.q[r] = if planted.q[r] == i8::MAX {
        planted.q[r] - 1
    } else {
        planted.q[r] + 1
    };
    checks.require(
        !matches_integer(&got, &integer_mac(&codes, &planted)),
        || "self-test: a one-code weight error passed the integer MAC check".into(),
    );
    let noisy = imc_matmul_packed(&codes, &l.planes, &m.noise, &m.adcs, &m.cfg, l.key);
    let mut flipped = noisy.data().to_vec();
    flipped[0] = f32::from_bits(flipped[0].to_bits() ^ 1);
    checks.require(!same_bits(noisy.data(), &flipped), || {
        "self-test: a one-bit output error passed the bitwise check".into()
    });
}

/// The paper's Table 1 efficiencies at 8b/8b, 5-bit ADC: CurFe
/// 12.18 TOPS/W and ChgFe 14.47 TOPS/W. The cost model's stated fit is
/// 2.4 % and 0.3 %; each deviation, rounded to one decimal of a
/// percent, must not exceed it.
pub fn cost_anchors(checks: &mut Checks) {
    for (variant, paper, stated_pct) in [(Variant::CurFe, 12.18, 2.4), (Variant::ChgFe, 14.47, 0.3)]
    {
        let model = DesignPoint::paper(variant).evaluate().tops_per_watt;
        let pct = ((model - paper).abs() / paper * 1000.0).round() / 10.0;
        checks.require(pct <= stated_pct, || {
            format!("{variant:?} models {model:.3} TOPS/W, {pct}% from the paper's {paper}")
        });
    }
}
