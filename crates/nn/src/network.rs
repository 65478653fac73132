//! The top-level [`Network`]: a named model with input/output metadata and
//! the whole-model operations (prediction, sparsity and FLOP accounting)
//! used by pruning and evaluation.

use crate::container::Sequential;
use crate::layer::{Layer, Mode, PrunableLayer};
use crate::param::{Param, ParamKind};
use crate::shape::ShapeReport;
use pv_tensor::par;
use pv_tensor::{Error, Tensor};

/// A complete classifier network.
///
/// Wraps a [`Sequential`] root with the metadata the rest of the workspace
/// needs: the expected per-sample input shape, the class count, and a name
/// for reports.
#[derive(Clone)]
pub struct Network {
    name: String,
    root: Sequential,
    input_shape: Vec<usize>,
    num_classes: usize,
    /// Per-layer kept-unit counts recorded by [`Network::compact`]
    /// (`None` for a network that was never physically compacted).
    compaction: Option<Vec<usize>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network({}: {:?} -> {} classes)",
            self.name, self.input_shape, self.num_classes
        )
    }
}

impl Network {
    /// Wraps a root module as a named network.
    ///
    /// `input_shape` is the per-sample shape (e.g. `[3, 16, 16]` or `[256]`).
    pub fn new(
        name: impl Into<String>,
        root: Sequential,
        input_shape: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        Self {
            name: name.into(),
            root,
            input_shape,
            num_classes,
            compaction: None,
        }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected per-sample input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Architecture summary string.
    pub fn describe(&self) -> String {
        self.root.describe()
    }

    /// Statically propagates the network's declared per-sample input shape
    /// through every layer (no activations are allocated) and returns the
    /// per-leaf trace.
    ///
    /// Beyond per-layer compatibility, this checks that the final shape
    /// carries `num_classes` in its leading dimension — `[classes]` for
    /// classifiers, `[classes, H, W]` for dense-prediction heads.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] naming the first offending layer.
    pub fn infer_shapes(&self) -> Result<ShapeReport, Error> {
        self.infer_shapes_for(&self.input_shape)
    }

    /// [`Network::infer_shapes`] from an explicit per-sample input shape
    /// (used by checkpoint validation to cross-check a stored shape).
    pub fn infer_shapes_for(&self, input_shape: &[usize]) -> Result<ShapeReport, Error> {
        let mut report = ShapeReport::default();
        let out = self.root.infer_shape(input_shape, &mut report)?;
        if out.first() != Some(&self.num_classes) {
            return Err(Error::ShapeMismatch {
                name: format!("{} (output classes)", self.name),
                expected: vec![self.num_classes],
                actual: out,
            });
        }
        Ok(report)
    }

    /// Forward pass on a batch (first axis = batch), producing logits
    /// `[N, classes]`.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(
            &x.shape()[1..],
            self.input_shape.as_slice(),
            "input shape mismatch for {}",
            self.name
        );
        #[cfg(feature = "sanitize")]
        crate::sanitize::check_finite("forward input", &self.name, x);
        let out = self.root.forward(x, mode);
        debug_assert_eq!(out.dim(1), self.num_classes);
        out
    }

    /// Fallible batched forward pass for untrusted inputs (the serving
    /// path): where [`Network::forward`] panics on a malformed batch,
    /// this validates first and reports a typed error, so a bad request
    /// can never take down a server worker.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when the batch is not
    /// `[N, input_shape...]` with `N ≥ 1`.
    pub fn try_forward_batch(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor, Error> {
        if x.ndim() != self.input_shape.len() + 1
            || &x.shape()[1..] != self.input_shape.as_slice()
            || x.dim(0) == 0
        {
            return Err(Error::ShapeMismatch {
                name: format!("{} (per-sample input, batch axis first)", self.name),
                expected: self.input_shape.clone(),
                actual: x.shape().to_vec(),
            });
        }
        Ok(self.forward(x, mode))
    }

    /// Backward pass from the loss gradient w.r.t. the logits.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        self.root.backward(grad_logits)
    }

    /// Predicted class labels for a batch.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.forward(x, Mode::Eval).argmax_rows()
    }

    /// Classification accuracy on `(x, labels)`, evaluated in mini-batches
    /// of `batch` samples to bound memory.
    ///
    /// Mini-batches are scored in parallel when worker threads are
    /// available (each worker predicts with its own clone of the network;
    /// eval-mode forward is pure, so the per-batch predictions — and the
    /// integer correct count — are identical to the serial sweep).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of samples or
    /// `batch == 0`.
    pub fn accuracy(&mut self, x: &Tensor, labels: &[usize], batch: usize) -> f64 {
        assert_eq!(x.dim(0), labels.len(), "label count mismatch");
        assert!(batch > 0, "batch must be positive");
        let n = labels.len();
        if n == 0 {
            return 0.0;
        }
        let n_batches = n.div_ceil(batch);
        let score_batch = |net: &mut Network, bi: usize| -> usize {
            let start = bi * batch;
            let end = (start + batch).min(n);
            let xb = x.slice_first_axis(start, end);
            let preds = net.predict(&xb);
            preds
                .iter()
                .zip(&labels[start..end])
                .filter(|(p, l)| p == l)
                .count()
        };
        let correct: usize = if n_batches > 1 && par::num_threads() > 1 {
            let this = &*self;
            par::parallel_map_with(n_batches, || this.clone(), score_batch)
                .into_iter()
                .sum()
        } else {
            (0..n_batches).map(|bi| score_batch(self, bi)).sum()
        };
        correct as f64 / n as f64
    }

    /// Test error (1 − accuracy) in percent, the unit used throughout the
    /// paper's tables.
    pub fn test_error_pct(&mut self, x: &Tensor, labels: &[usize], batch: usize) -> f64 {
        100.0 * (1.0 - self.accuracy(x, labels, batch))
    }

    /// Applies `f` to every parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.root.visit_params(f);
    }

    /// Applies `f` to every parameter together with its stable hierarchical
    /// name (e.g. `s0b0c0.weight`, `fc0.bn.gamma`), in the same order as
    /// [`Network::visit_params`].
    ///
    /// This is the single state-dict API: checkpoint save/load, pruning-mask
    /// serialization, and serving all address parameters through these
    /// names, which are unique within a network because leaf labels are.
    pub fn visit_params_named(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        self.root.visit_params_named("", f);
    }

    /// Applies `f` to every non-trainable buffer (batch-norm running
    /// statistics) with its stable name (e.g. `stem.bn.running_mean`).
    pub fn visit_buffers_named(&mut self, f: &mut dyn FnMut(&str, &mut [f32])) {
        self.root.visit_buffers_named("", f);
    }

    /// Names of all parameters in visitation order.
    pub fn param_names(&mut self) -> Vec<String> {
        let mut names = Vec::new();
        self.visit_params_named(&mut |name, _| names.push(name.to_string()));
        names
    }

    /// Applies `f` to every prunable leaf, in forward order.
    pub fn visit_prunable(&mut self, f: &mut dyn FnMut(&mut dyn PrunableLayer)) {
        self.root.visit_prunable(f);
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Re-applies all pruning masks (idempotent).
    pub fn project_masks(&mut self) {
        self.visit_params(&mut |p| p.project());
    }

    /// Total number of scalar parameters (including biases and batch-norm).
    pub fn total_param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Number of *prunable* weight entries, the denominator of the paper's
    /// prune ratio.
    pub fn prunable_param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| {
            if p.kind == ParamKind::Weight {
                n += p.len();
            }
        });
        n
    }

    /// Number of still-active prunable weight entries.
    pub fn active_prunable_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| {
            if p.kind == ParamKind::Weight {
                n += p.active_count();
            }
        });
        n
    }

    /// Overall prune ratio over prunable weights in `[0, 1]`
    /// (`1 − ‖c‖₀/‖θ‖₀`, Definition 1's sparsity measure).
    pub fn prune_ratio(&mut self) -> f64 {
        let total = self.prunable_param_count();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.active_prunable_count() as f64 / total as f64
    }

    /// Dense per-sample multiply-accumulate count of the architecture.
    pub fn dense_flops(&self) -> u64 {
        self.root.flops_per_sample()
    }

    /// Current per-sample FLOPs given the installed masks.
    ///
    /// Unstructured masks scale a layer's FLOPs by its weight density;
    /// structured masks (full zero rows) reduce the density in exactly the
    /// same proportion, so one accounting rule covers both (this matches the
    /// convention of the reference implementation up to the downstream
    /// input-channel saving, which is conservative here).
    pub fn current_flops(&mut self) -> u64 {
        let mut total = 0.0f64;
        self.visit_prunable(&mut |l| {
            total += l.dense_flops() as f64 * l.weight().density();
        });
        total.round() as u64
    }

    /// FLOP reduction ratio `FR = 1 − current/dense` in `[0, 1]`.
    pub fn flop_reduction(&mut self) -> f64 {
        let dense: f64 = {
            let mut d = 0.0;
            self.visit_prunable(&mut |l| d += l.dense_flops() as f64);
            d
        };
        if dense == 0.0 {
            return 0.0;
        }
        1.0 - self.current_flops() as f64 / dense
    }

    /// Labels of all prunable leaves in forward order.
    pub fn prunable_labels(&mut self) -> Vec<String> {
        let mut labels = Vec::new();
        self.visit_prunable(&mut |l| labels.push(l.label().to_string()));
        labels
    }

    /// Per-layer densities of prunable weights, in forward order.
    pub fn layer_densities(&mut self) -> Vec<f64> {
        let mut d = Vec::new();
        self.visit_prunable(&mut |l| d.push(l.weight().density()));
        d
    }

    /// Per-layer kept-unit counts when this network was physically
    /// compacted via [`Network::compact`]; `None` for an uncompacted
    /// network. Checkpoint save records this as `meta/compaction` so a
    /// loader can rebuild the shrunken architecture.
    pub fn compaction(&self) -> Option<&[usize]> {
        self.compaction.as_deref()
    }

    /// Records compaction metadata on a network whose layers were *built*
    /// at compacted shapes (the checkpoint-load path: the loader constructs
    /// the small architecture from `meta/compaction`, fills the parameters,
    /// then stamps the metadata back on so re-saving round-trips).
    pub fn set_compaction(&mut self, kept_units: Vec<usize>) {
        self.compaction = Some(kept_units);
    }

    /// Physically shrinks structurally pruned layers: every unit whose mask
    /// row is all-zero is removed from its layer (weight row, bias entry,
    /// batch-norm channel) and from the next layer's input columns, so the
    /// network computes with genuinely smaller dense matrices instead of
    /// masked-out zeros. Eval-mode forward of the result is `==`-equal to
    /// the masked original (removed units output exactly zero, and a zero
    /// input contributes exactly nothing to an fma chain).
    ///
    /// All masks and optimizer state are dropped in the result — surviving
    /// entries are live by construction (the classifier keeps any
    /// unstructured zeros in its *values*). The kept-unit counts are
    /// recorded and retrievable via [`Network::compaction`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Compaction`] when the network is not a pure chain
    /// of linear blocks (only FT/PFP-pruned MLPs compact today), a
    /// non-classifier mask is not row-structured (all-zero or all-one
    /// rows — i.e. the network was unstructured-pruned), a layer would be
    /// left with zero units, or a pruned unit still has a nonzero bias or
    /// batch-norm affine parameter.
    pub fn compact(&self) -> Result<Network, Error> {
        let mut out = self.clone();
        let mut prev_keep: Option<Vec<usize>> = None;
        let mut kept_units = Vec::with_capacity(out.root.layers().len());
        for (idx, layer) in out.root.layers_mut().iter_mut().enumerate() {
            let Some(lin) = layer.as_linear_mut() else {
                return Err(Error::Compaction(format!(
                    "layer {idx} ({}) is not a linear block; compaction requires a pure \
                     linear chain",
                    layer.describe()
                )));
            };
            let keep = if lin.is_classifier() {
                None
            } else {
                Some(row_keep_set(lin)?)
            };
            if let Some(keep) = &keep {
                check_dropped_units_silenced(lin, keep)?;
            }
            lin.compact_in_place(keep.as_deref(), prev_keep.as_deref());
            kept_units.push(lin.out_dim());
            prev_keep = keep;
        }
        out.compaction = Some(kept_units);
        out.infer_shapes()?;
        Ok(out)
    }

    /// Builds CSR sidecars ([`Tensor::ensure_csr`]) for every weight at or
    /// below `max_density` nonzero fraction, so the packed backend's CSR
    /// route engages on the next forward pass. Returns how many weights
    /// carry a sidecar afterwards. Idempotent; denser weights are left
    /// alone and stay on the packed pipeline.
    pub fn prepare_sparse(&mut self, max_density: f32) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| {
            if p.kind == ParamKind::Weight && p.value.ensure_csr(max_density) {
                n += 1;
            }
        });
        n
    }
}

/// Keep-set of a non-classifier layer: the row indices of its mask with all
/// entries active. A missing mask keeps every row.
fn row_keep_set(lin: &crate::linear::LinearBlock) -> Result<Vec<usize>, Error> {
    let w = lin.weight();
    let (rows, cols) = (w.value.dim(0), w.value.dim(1));
    let Some(mask) = &w.mask else {
        return Ok((0..rows).collect());
    };
    let md = mask.data();
    let mut keep = Vec::new();
    for r in 0..rows {
        let active = md[r * cols..(r + 1) * cols]
            .iter()
            .filter(|&&v| v != 0.0)
            .count();
        if active == cols {
            keep.push(r);
        } else if active != 0 {
            return Err(Error::Compaction(format!(
                "mask of '{}' row {r} is not row-structured ({active}/{cols} entries \
                 active); compaction applies to FT/PFP-style structured masks only",
                lin.label()
            )));
        }
    }
    if keep.is_empty() {
        return Err(Error::Compaction(format!(
            "every unit of '{}' is pruned; nothing would remain after compaction",
            lin.label()
        )));
    }
    Ok(keep)
}

/// Dropping a unit is only output-preserving when the unit emits exactly
/// zero, which requires its bias and batch-norm affine parameters to be
/// zero too (structured pruning's `prune_rows` masks them together with the
/// weight row; this guards against hand-rolled masks that did not).
fn check_dropped_units_silenced(
    lin: &mut crate::linear::LinearBlock,
    keep: &[usize],
) -> Result<(), Error> {
    let label = lin.label().to_string();
    let out_units = lin.out_units();
    let kept: std::collections::BTreeSet<usize> = keep.iter().copied().collect();
    let check = |what: &str, values: &[f32]| -> Result<(), Error> {
        for r in (0..out_units).filter(|r| !kept.contains(r)) {
            if values[r] != 0.0 {
                return Err(Error::Compaction(format!(
                    "unit {r} of '{label}' is pruned but its {what} is nonzero; \
                     structured pruning must silence coupled parameters"
                )));
            }
        }
        Ok(())
    };
    if let Some(bias) = lin.bias_mut() {
        check("bias", bias.value.data())?;
    }
    for p in lin.coupled_mut() {
        check("batch-norm affine parameter", p.value.data())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearBlock;
    use pv_tensor::{Rng, Tensor};

    fn tiny_net(rng: &mut Rng) -> Network {
        let root = Sequential::new()
            .then(LinearBlock::new("fc1", 4, 8, rng).with_relu())
            .then(LinearBlock::new("fc2", 8, 3, rng).as_classifier());
        Network::new("tiny", root, vec![4], 3)
    }

    #[test]
    fn forward_and_predict_shapes() {
        let mut rng = Rng::new(1);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        let logits = net.forward(&x, Mode::Eval);
        assert_eq!(logits.shape(), &[5, 3]);
        let preds = net.predict(&x);
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn param_counts() {
        let mut rng = Rng::new(2);
        let mut net = tiny_net(&mut rng);
        assert_eq!(net.prunable_param_count(), 4 * 8 + 8 * 3);
        assert_eq!(net.total_param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.prune_ratio(), 0.0);
    }

    #[test]
    fn prune_ratio_reflects_masks() {
        let mut rng = Rng::new(3);
        let mut net = tiny_net(&mut rng);
        // mask half the weights of the first layer
        net.visit_prunable(&mut |l| {
            if l.label() == "fc1" {
                let n = l.weight().len();
                let mask = Tensor::from_fn(&[l.out_units(), l.unit_len()], |i| {
                    if i < n / 2 {
                        0.0
                    } else {
                        1.0
                    }
                });
                l.weight_mut().set_mask(mask);
            }
        });
        let expected = 16.0 / 56.0;
        assert!((net.prune_ratio() - expected).abs() < 1e-9);
        assert!(net.flop_reduction() > 0.0);
        assert!(net.current_flops() < net.dense_flops());
    }

    #[test]
    fn accuracy_batches_cover_everything() {
        let mut rng = Rng::new(4);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::rand_uniform(&[7, 4], -1.0, 1.0, &mut rng);
        let preds = net.predict(&x);
        let acc = net.accuracy(&x, &preds, 3); // batch smaller than n
        assert!((acc - 1.0).abs() < 1e-12);
        let err = net.test_error_pct(&x, &preds, 3);
        assert!(err.abs() < 1e-9);
    }

    #[test]
    fn named_visitation_matches_unnamed_order() {
        let mut rng = Rng::new(6);
        let mut net = tiny_net(&mut rng);
        let mut unnamed_lens = Vec::new();
        net.visit_params(&mut |p| unnamed_lens.push(p.len()));
        let mut named = Vec::new();
        net.visit_params_named(&mut |name, p| named.push((name.to_string(), p.len())));
        assert_eq!(
            named.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            unnamed_lens,
            "named visitation must mirror visit_params order"
        );
        let names = net.param_names();
        assert_eq!(
            names,
            vec!["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]
        );
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "parameter names must be unique");
    }

    #[test]
    fn buffer_visitation_reaches_batch_norm_stats() {
        let mut rng = Rng::new(7);
        let root = Sequential::new()
            .then(
                LinearBlock::new("fc1", 4, 8, &mut rng)
                    .with_batch_norm()
                    .with_relu(),
            )
            .then(LinearBlock::new("fc2", 8, 3, &mut rng).as_classifier());
        let mut net = Network::new("tiny-bn", root, vec![4], 3);
        let mut seen = Vec::new();
        net.visit_buffers_named(&mut |name, buf| seen.push((name.to_string(), buf.len())));
        assert_eq!(
            seen,
            vec![
                ("fc1.bn.running_mean".to_string(), 8),
                ("fc1.bn.running_var".to_string(), 8)
            ]
        );
        // buffers are writable through the visitor
        net.visit_buffers_named(&mut |_, buf| buf.fill(0.25));
        let mut total = 0.0;
        net.visit_buffers_named(&mut |_, buf| total += buf.iter().sum::<f32>());
        assert!((total - 16.0 * 0.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn wrong_input_shape_panics() {
        let mut rng = Rng::new(5);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::zeros(&[2, 5]);
        net.forward(&x, Mode::Eval);
    }

    /// Masks whole units of `label` out, the way structured pruning's
    /// `prune_rows` does: weight rows, bias entries, and coupled batch-norm
    /// parameters together.
    fn drop_units(net: &mut Network, label: &str, drop: &[usize]) {
        net.visit_prunable(&mut |l| {
            if l.label() != label {
                return;
            }
            let (o, u) = (l.out_units(), l.unit_len());
            let row = |i: usize| if drop.contains(&i) { 0.0 } else { 1.0 };
            l.weight_mut()
                .set_mask(Tensor::from_fn(&[o, u], |i| row(i / u)));
            if let Some(b) = l.bias_mut() {
                b.set_mask(Tensor::from_fn(&[o], row));
            }
            for p in l.coupled_mut() {
                p.set_mask(Tensor::from_fn(&[o], row));
            }
        });
    }

    #[test]
    fn compact_matches_masked_forward_bitwise() {
        for with_bn in [false, true] {
            let mut net = crate::models::mlp("m", 6, &[10, 8], 4, with_bn, 3);
            let mut rng = Rng::new(11);
            // warm the running statistics so eval-mode batch-norm is
            // non-trivial before pruning
            let warm = Tensor::rand_uniform(&[8, 6], -1.0, 1.0, &mut rng);
            let _ = net.forward(&warm, Mode::Train);
            drop_units(&mut net, "fc0", &[1, 4, 7]);
            drop_units(&mut net, "fc1", &[0, 5]);
            let mut compacted = net.compact().expect("structured masks compact");
            assert_eq!(compacted.compaction(), Some(&[7, 6, 4][..]));
            assert!(compacted.total_param_count() < net.total_param_count());
            assert_eq!(compacted.prune_ratio(), 0.0, "masks are gone");
            let x = Tensor::rand_uniform(&[5, 6], -1.0, 1.0, &mut rng);
            assert_eq!(
                compacted.forward(&x, Mode::Eval),
                net.forward(&x, Mode::Eval),
                "bn={with_bn}: compacted forward must match the masked original"
            );
        }
    }

    #[test]
    fn compact_without_masks_is_identity() {
        let mut rng = Rng::new(12);
        let mut net = tiny_net(&mut rng);
        let mut compacted = net.compact().expect("dense net compacts trivially");
        assert_eq!(compacted.compaction(), Some(&[8, 3][..]));
        let x = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        assert_eq!(
            compacted.forward(&x, Mode::Eval),
            net.forward(&x, Mode::Eval)
        );
    }

    #[test]
    fn compact_rejects_unstructured_masks() {
        let mut rng = Rng::new(13);
        let mut net = tiny_net(&mut rng);
        net.visit_prunable(&mut |l| {
            if l.label() == "fc1" {
                let mask = Tensor::from_fn(&[l.out_units(), l.unit_len()], |i| {
                    if i % 2 == 0 {
                        0.0
                    } else {
                        1.0
                    }
                });
                l.weight_mut().set_mask(mask);
            }
        });
        let err = net.compact().unwrap_err();
        assert!(matches!(err, Error::Compaction(_)), "got {err}");
        assert!(err.to_string().contains("row-structured"));
    }

    #[test]
    fn compact_rejects_unsilenced_bias() {
        let mut rng = Rng::new(14);
        let mut net = tiny_net(&mut rng);
        net.visit_prunable(&mut |l| {
            if l.label() == "fc1" {
                let (o, u) = (l.out_units(), l.unit_len());
                l.weight_mut().set_mask(Tensor::from_fn(&[o, u], |i| {
                    if i / u == 2 {
                        0.0
                    } else {
                        1.0
                    }
                }));
                // bias of the dropped unit deliberately left nonzero
                if let Some(b) = l.bias_mut() {
                    b.value.data_mut()[2] = 0.5;
                }
            }
        });
        let err = net.compact().unwrap_err();
        assert!(err.to_string().contains("bias is nonzero"), "got {err}");
    }

    #[test]
    fn compact_rejects_non_linear_chains() {
        use crate::container::Residual;
        let root = Sequential::new().then(Residual::new(Sequential::new()));
        let net = Network::new("res", root, vec![4], 3);
        let err = net.compact().unwrap_err();
        assert!(err.to_string().contains("not a linear block"), "got {err}");
    }

    #[test]
    fn prepare_sparse_builds_sidecars_for_sparse_weights() {
        let mut rng = Rng::new(15);
        let mut net = tiny_net(&mut rng);
        // prune fc1 to 10% density; fc2 stays dense
        net.visit_prunable(&mut |l| {
            if l.label() == "fc1" {
                let n = l.weight().len();
                let mask = Tensor::from_fn(&[l.out_units(), l.unit_len()], |i| {
                    if i % 10 == 0 && i < n {
                        1.0
                    } else {
                        0.0
                    }
                });
                l.weight_mut().set_mask(mask);
            }
        });
        assert_eq!(net.prepare_sparse(0.25), 1);
        let mut with_sidecar = Vec::new();
        net.visit_params_named(&mut |name, p| {
            if p.value.csr().is_some() {
                with_sidecar.push(name.to_string());
            }
        });
        assert_eq!(with_sidecar, vec!["fc1.weight"]);
        // idempotent
        assert_eq!(net.prepare_sparse(0.25), 1);
    }
}
