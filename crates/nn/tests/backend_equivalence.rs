//! Whole-network backend equivalence: a mini_resnet forward pass must be
//! **bitwise identical** under every registered kernel backend.
//!
//! The per-kernel conformance suite (pv-tensor's
//! `tests/backend_conformance.rs`) proves each GEMM/conv primitive
//! matches the scalar oracle; this test closes the loop at the network
//! level, where dozens of kernel calls, batch-norm folds, and residual
//! adds compose. Any backend that drifts by one ULP anywhere in the
//! chain fails `assert_eq!` on the raw `f32` storage.

use pv_nn::{models, Mode, ParamKind};
use pv_tensor::{all_backends, with_backend, Rng, Tensor, DEFAULT_MAX_DENSITY, SCALAR};

/// Forward the same freshly seeded network under `backend` and return the
/// logits. Each call rebuilds the network so running-stat mutation in one
/// pass cannot leak into the next.
fn logits_under(backend: &'static dyn pv_tensor::Backend, mode: Mode) -> Tensor {
    let mut net = models::mini_resnet("be", (3, 16, 16), 10, 8, 2, 2);
    let x = Tensor::rand_uniform(&[4, 3, 16, 16], -1.0, 1.0, &mut Rng::new(33));
    with_backend(backend, || net.forward(&x, mode))
}

#[test]
fn mini_resnet_forward_is_bitwise_identical_across_backends() {
    for mode in [Mode::Eval, Mode::Train] {
        let want = logits_under(&SCALAR, mode);
        assert!(want.data().iter().all(|v| v.is_finite()));
        for be in all_backends() {
            let got = logits_under(*be, mode);
            assert_eq!(
                got,
                want,
                "mini_resnet {mode:?} forward diverged between the '{}' backend and the scalar oracle",
                be.name()
            );
        }
    }
}

#[test]
fn training_step_is_bitwise_identical_across_backends() {
    // one forward/backward/update cycle: gradients flow through each
    // backend's conv2d_backward and GEMM transposes
    let step = |backend: &'static dyn pv_tensor::Backend| -> Vec<f32> {
        let mut net = models::mini_resnet("be", (3, 16, 16), 10, 8, 2, 2);
        let x = Tensor::rand_uniform(&[4, 3, 16, 16], -1.0, 1.0, &mut Rng::new(57));
        let y = vec![0usize, 3, 7, 9];
        with_backend(backend, || {
            let logits = net.forward(&x, Mode::Train);
            let out = pv_nn::cross_entropy(&logits, &y);
            net.backward(&out.grad_logits);
            pv_nn::sgd_step(&mut net, 0.05, 0.9, false, 5e-4);
            net.forward(&x, Mode::Eval).data().to_vec()
        })
    };
    let want = step(&SCALAR);
    for be in all_backends() {
        let got = step(*be);
        assert!(
            got.iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "post-step logits diverged on the '{}' backend",
            be.name()
        );
    }
}

#[test]
fn csr_prepared_wt95_mlp_forward_matches_the_scalar_oracle() {
    // keep the largest 5% of each weight's magnitudes, as WT at 95% does
    let mut net = models::mlp("wt95", 64, &[96, 48], 10, false, 21);
    net.visit_params(&mut |p| {
        if p.kind == ParamKind::Weight {
            let mut mags: Vec<f32> = p.value.data().iter().map(|v| v.abs()).collect();
            mags.sort_by(f32::total_cmp);
            let cut = mags[mags.len() * 95 / 100];
            p.set_mask(p.value.map(|v| f32::from(v.abs() >= cut)));
        }
    });
    let x = Tensor::rand_uniform(&[5, 64], -1.0, 1.0, &mut Rng::new(22));
    let want = with_backend(&SCALAR, || net.forward(&x, Mode::Eval));
    assert_eq!(
        net.prepare_sparse(DEFAULT_MAX_DENSITY),
        3,
        "every layer goes CSR"
    );
    for be in all_backends() {
        let got = with_backend(*be, || net.forward(&x, Mode::Eval));
        assert_eq!(
            got,
            want,
            "CSR-prepared forward diverged on '{}'",
            be.name()
        );
    }
}
