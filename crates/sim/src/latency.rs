//! Roofline latency evaluation of fused kernels.

use crate::device::{DeviceModel, Precision};
use crate::fusion::{fuse_costs, FusedKernel};
use netcut_graph::Network;

/// Noise-free latency of one fused kernel in milliseconds.
///
/// `max(compute, memory) + launch overhead`, with compute throughput scaled
/// by kind efficiency, occupancy, and precision, and memory traffic scaled
/// by the precision's byte width.
pub fn kernel_latency_ms(kernel: &FusedKernel, device: &DeviceModel, precision: Precision) -> f64 {
    let eff = device.kind_efficiency(&kernel.primary_kind);
    let occ = device.occupancy(kernel.output_elements);
    let throughput_flops = device.peak_gflops * 1e9 * eff * occ * precision.compute_speedup(device);
    let compute_s = kernel.flops as f64 / throughput_flops.max(1.0);
    let bytes = (kernel.bytes_read + kernel.bytes_written) as f64 * precision.byte_scale();
    let memory_s = bytes / (device.mem_bandwidth_gbs * 1e9);
    compute_s.max(memory_s) * 1e3 + device.kernel_overhead_us * 1e-3
}

/// Noise-free end-to-end latency of `net` in milliseconds: the sum of its
/// fused kernels' latencies ("compute time starts right after the inputs
/// are transferred until they are ready to be transferred back", §IV-B-2 —
/// host transfers are excluded, as in the paper).
pub fn network_latency_ms(net: &Network, device: &DeviceModel, precision: Precision) -> f64 {
    let steady: f64 = fuse_costs(net)
        .0
        .iter()
        .map(|k| kernel_latency_ms(k, device, precision))
        .sum();
    steady * device.ramp_factor(steady)
}

/// Noise-free latency of one *batched* inference of `net` in milliseconds.
///
/// Batching multiplies per-sample compute and activation traffic by
/// `batch`, amortizes weight streaming and kernel launches across the
/// batch, and improves occupancy (more parallel work per kernel) — the
/// standard latency/throughput trade-off. The real-time control loop runs
/// at batch 1; this model quantifies what that choice costs in throughput.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn batched_network_latency_ms(
    net: &Network,
    device: &DeviceModel,
    precision: Precision,
    batch: usize,
) -> f64 {
    assert!(batch > 0, "batch must be positive");
    batched_kernels_latency_ms(&fuse_costs(net).0, device, precision, batch)
}

/// [`batched_network_latency_ms`] over an already-fused kernel list, so a
/// caller pricing several batch sizes fuses the network once.
fn batched_kernels_latency_ms(
    kernels: &[FusedKernel],
    device: &DeviceModel,
    precision: Precision,
    batch: usize,
) -> f64 {
    let b = batch as f64;
    let steady: f64 = kernels
        .iter()
        .map(|k| {
            let eff = device.kind_efficiency(&k.primary_kind);
            let occ = device.occupancy(k.output_elements * batch as u64);
            let throughput =
                device.peak_gflops * 1e9 * eff * occ * precision.compute_speedup(device);
            let compute_s = k.flops as f64 * b / throughput.max(1.0);
            let activation_bytes = (k.bytes_read - k.weight_bytes + k.bytes_written) as f64 * b;
            let bytes = (activation_bytes + k.weight_bytes as f64) * precision.byte_scale();
            let memory_s = bytes / (device.mem_bandwidth_gbs * 1e9);
            compute_s.max(memory_s) * 1e3 + device.kernel_overhead_us * 1e-3
        })
        .sum();
    steady * device.ramp_factor(steady)
}

/// Noise-free latency of one batched inference of `net` in **integer
/// microseconds** (rounded, at least 1). The integer form is what
/// deadline-aware schedulers consume: every downstream comparison stays in
/// exact integer arithmetic, so scheduling decisions are bit-identical
/// across platforms and worker counts.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn batched_network_latency_us(
    net: &Network,
    device: &DeviceModel,
    precision: Precision,
    batch: usize,
) -> u64 {
    (batched_network_latency_ms(net, device, precision, batch) * 1000.0)
        .round()
        .max(1.0) as u64
}

/// Batch-scaling curve in **parts per million**: element `b - 1` is the
/// latency of a `b`-sized inference relative to batch 1 on the same device
/// and precision, rounded to integer ppm, for every `b` in `1..=batch_max`.
/// Element 0 is exactly [`crate::PPM_SCALE`] (1 000 000), and
/// `batch_max == 0` yields an empty curve.
///
/// This is the form a serving runtime stores per ladder rung: multiplying a
/// measured batch-1 latency (integer µs) by a factor reproduces the
/// analytic batching curve — weight-streaming and launch-overhead
/// amortization, occupancy growth — without any float entering the
/// scheduler's arithmetic. The network is fused once for the whole curve.
pub fn batch_curve_ppm(
    net: &Network,
    device: &DeviceModel,
    precision: Precision,
    batch_max: usize,
) -> Vec<u64> {
    let (kernels, _) = fuse_costs(net);
    let base = batched_kernels_latency_ms(&kernels, device, precision, 1);
    (1..=batch_max)
        .map(|batch| {
            if batch == 1 {
                return crate::PPM_SCALE;
            }
            let batched = batched_kernels_latency_ms(&kernels, device, precision, batch);
            (batched / base * crate::PPM_SCALE as f64).round() as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcut_graph::zoo;

    #[test]
    fn int8_is_faster_than_fp32() {
        let d = DeviceModel::jetson_xavier();
        let net = zoo::mobilenet_v2(1.0);
        let fp32 = network_latency_ms(&net, &d, Precision::Fp32);
        let int8 = network_latency_ms(&net, &d, Precision::Int8);
        assert!(int8 < fp32, "int8 {int8} !< fp32 {fp32}");
    }

    #[test]
    fn latency_decreases_with_blocks_removed() {
        let d = DeviceModel::jetson_xavier();
        let net = zoo::resnet50();
        let head = netcut_graph::HeadSpec::default();
        let mut prev = f64::INFINITY;
        for k in 0..net.num_blocks() {
            let trn = net.cut_blocks(k).unwrap().with_head(&head);
            let lat = network_latency_ms(&trn, &d, Precision::Int8);
            assert!(lat < prev, "cut {k}: {lat} !< {prev}");
            prev = lat;
        }
    }

    #[test]
    fn latency_roughly_linear_in_blocks_removed() {
        // §IV-B-2: "inference latency decreases almost linearly w.r.t. the
        // number of layers removed". Check monotone decrements of similar
        // magnitude within a homogeneous stage of MobileNetV1.
        let d = DeviceModel::jetson_xavier();
        let net = zoo::mobilenet_v1(0.5);
        let head = netcut_graph::HeadSpec::default();
        let lat: Vec<f64> = (2..=6)
            .map(|k| {
                let trn = net.cut_blocks(k).unwrap().with_head(&head);
                network_latency_ms(&trn, &d, Precision::Int8)
            })
            .collect();
        let deltas: Vec<f64> = lat.windows(2).map(|w| w[0] - w[1]).collect();
        for d in &deltas {
            assert!(*d > 0.0);
        }
        let max = deltas.iter().copied().fold(f64::MIN, f64::max);
        let min = deltas.iter().copied().fold(f64::MAX, f64::min);
        assert!(max / min < 4.0, "deltas too uneven: {deltas:?}");
    }

    #[test]
    fn batch_one_matches_single_sample_model() {
        let d = DeviceModel::jetson_xavier();
        let net = zoo::mobilenet_v1(0.5);
        let single = network_latency_ms(&net, &d, Precision::Int8);
        let batched = batched_network_latency_ms(&net, &d, Precision::Int8, 1);
        assert!((single - batched).abs() < 1e-12);
    }

    #[test]
    fn batching_improves_throughput_but_not_latency() {
        let d = DeviceModel::jetson_xavier();
        let net = zoo::resnet50();
        let mut prev_latency = 0.0;
        let mut prev_throughput = 0.0;
        for batch in [1usize, 2, 4, 8, 16] {
            let lat = batched_network_latency_ms(&net, &d, Precision::Int8, batch);
            let throughput = batch as f64 / lat;
            assert!(lat > prev_latency, "latency must grow with batch");
            assert!(
                throughput > prev_throughput,
                "throughput must grow with batch ({batch}: {throughput} vs {prev_throughput})"
            );
            prev_latency = lat;
            prev_throughput = throughput;
        }
    }

    #[test]
    fn integer_form_tracks_the_float_model() {
        let d = DeviceModel::jetson_xavier();
        let net = zoo::mobilenet_v2(1.0);
        for batch in [1usize, 2, 4, 8] {
            let ms = batched_network_latency_ms(&net, &d, Precision::Int8, batch);
            let us = batched_network_latency_us(&net, &d, Precision::Int8, batch);
            assert!((us as f64 - ms * 1000.0).abs() <= 0.5, "batch {batch}");
        }
    }

    #[test]
    fn batch_curve_is_ppm_exact_at_one_monotone_and_matches_the_per_batch_model() {
        // One fusion pass per curve prices each batch size exactly as a
        // fresh `batched_network_latency_ms` call does.
        for net in zoo::paper_networks() {
            for d in [
                DeviceModel::jetson_xavier(),
                DeviceModel::jetson_nano(),
                DeviceModel::tesla_k20m(),
            ] {
                let at = format!("{} on {}", net.name(), d.name);
                let curve = batch_curve_ppm(&net, &d, Precision::Int8, 16);
                assert_eq!(curve.len(), 16, "{at}");
                assert_eq!(curve[0], crate::PPM_SCALE, "{at}");
                let base = batched_network_latency_ms(&net, &d, Precision::Int8, 1);
                let mut prev = 0;
                for (i, &scale) in curve.iter().enumerate() {
                    let batch = i + 1;
                    let batched = batched_network_latency_ms(&net, &d, Precision::Int8, batch);
                    assert_eq!(
                        scale,
                        (batched / base * 1e6).round() as u64,
                        "{at}, batch {batch}"
                    );
                    assert!(scale > prev, "{at}: scale not monotone at batch {batch}");
                    // Sublinear for batch >= 2: batching amortizes weights
                    // and launches, so the scale grows slower than the
                    // batch size itself.
                    assert!(
                        batch == 1 || scale < 1_000_000 * batch as u64,
                        "{at}: batch {batch} scale {scale} is not sublinear"
                    );
                    prev = scale;
                }
            }
        }
        let d = DeviceModel::jetson_xavier();
        assert!(batch_curve_ppm(&zoo::mobilenet_v2(1.0), &d, Precision::Int8, 0).is_empty());
    }

    #[test]
    fn fusion_reduces_latency() {
        // Compare fused latency with a hypothetical unfused execution by
        // pricing each compute node as its own kernel.
        let d = DeviceModel::jetson_xavier();
        let net = zoo::mobilenet_v1(0.5);
        let fused = network_latency_ms(&net, &d, Precision::Int8);
        let unfused: f64 = net
            .nodes()
            .iter()
            .filter(|n| !matches!(n.kind(), netcut_graph::LayerKind::Input))
            .map(|n| {
                let ls = netcut_graph::layer_stats(&net, n.id());
                let k = FusedKernel {
                    primary: n.id(),
                    members: vec![n.id()],
                    flops: ls.flops,
                    bytes_read: ls.bytes_read,
                    weight_bytes: ls.params * 4,
                    bytes_written: ls.bytes_written,
                    output_elements: ls.output_elements,
                    primary_kind: *n.kind(),
                };
                kernel_latency_ms(&k, &d, Precision::Int8)
            })
            .sum();
        assert!(fused < unfused * 0.8, "fused {fused} vs unfused {unfused}");
    }
}
