//! Compaction equivalence: a structurally pruned (FT / PFP) network,
//! physically compacted to its surviving units, must produce eval-mode
//! forwards `==`-equal to the masked original — removed units output
//! exactly zero, and exact zeros contribute exactly nothing to an fma
//! chain, so shrinking the matrices cannot move any output bit the `f32
//! ==` contract can observe.

use pv_nn::{models, train, Mode, TrainConfig};
use pv_prune::{
    FilterThresholding, ProvableFilterPruning, PruneContext, PruneMethod, PruneRetrain,
};
use pv_tensor::{Rng, Tensor};

fn toy_task(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let mut xs = Vec::with_capacity(n * 8);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 4;
        ys.push(class);
        for d in 0..8 {
            let center = if d % 4 == class { 1.5 } else { 0.0 };
            xs.push(center + 0.3 * rng.normal() as f32);
        }
    }
    (Tensor::from_vec(vec![n, 8], xs), ys)
}

fn quick_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 32,
        ..TrainConfig::default()
    }
}

fn compaction_matches(method: &dyn PruneMethod, with_bn: bool, seed: u64) {
    let (x, y) = toy_task(128, seed);
    let mut parent = models::mlp("m", 8, &[24, 16], 4, with_bn, seed ^ 0xABCD);
    train(&mut parent, &x, &y, &quick_cfg(), None);

    let ctx = if method.is_data_informed() {
        PruneContext::with_batch(x.slice_first_axis(0, 32))
    } else {
        PruneContext::data_free()
    };
    let pipeline = PruneRetrain::new(2, quick_cfg());
    let outcome = pipeline.run(&parent, method, 0.5, &x, &y, &ctx);

    let mut masked = outcome.network;
    let mut compacted = masked.compact().unwrap_or_else(|e| {
        panic!("{} (bn={with_bn}) must compact: {e}", method.name());
    });
    assert!(
        compacted.total_param_count() < masked.total_param_count(),
        "{} (bn={with_bn}) pruned nothing physical",
        method.name()
    );
    let kept = compacted
        .compaction()
        .expect("compacted network records kept units")
        .to_vec();
    assert_eq!(
        *kept.last().expect("non-empty"),
        4,
        "classifier keeps all classes"
    );

    let mut rng = Rng::new(seed ^ 0xF00D);
    let probe = Tensor::rand_uniform(&[9, 8], -1.0, 1.0, &mut rng);
    let a = masked.forward(&probe, Mode::Eval);
    let b = compacted.forward(&probe, Mode::Eval);
    assert_eq!(
        a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{} (bn={with_bn}): compacted forward must be bitwise-equal",
        method.name()
    );

    // the compacted network also serves identically after admission-time
    // preparation under the packed backend (its small dense weights get
    // no sidecar and stay on the packed pipeline)
    let mut served = compacted.clone();
    served.prepare_sparse(pv_tensor::DEFAULT_MAX_DENSITY);
    let c = pv_tensor::with_backend(&pv_tensor::PACKED, || served.forward(&probe, Mode::Eval));
    assert_eq!(
        b,
        c,
        "{} (bn={with_bn}): prepared packed forward disagrees",
        method.name()
    );
}

#[test]
fn ft_compaction_is_forward_equivalent() {
    for with_bn in [false, true] {
        compaction_matches(&FilterThresholding, with_bn, 11);
    }
}

#[test]
fn pfp_compaction_is_forward_equivalent() {
    for with_bn in [false, true] {
        compaction_matches(&ProvableFilterPruning, with_bn, 13);
    }
}

#[test]
fn unstructured_masks_refuse_compaction() {
    let (x, y) = toy_task(64, 17);
    let mut parent = models::mlp("m", 8, &[16], 4, false, 18);
    train(&mut parent, &x, &y, &quick_cfg(), None);
    let pipeline = PruneRetrain::new(1, quick_cfg());
    let outcome = pipeline.run(
        &parent,
        &pv_prune::WeightThresholding,
        0.7,
        &x,
        &y,
        &PruneContext::data_free(),
    );
    let err = outcome.network.compact().unwrap_err();
    assert!(
        err.to_string().contains("row-structured"),
        "WT masks must be rejected, got: {err}"
    );
}
