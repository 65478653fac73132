//! The [`ModelRegistry`]: named, shape-validated networks available for
//! serving.
//!
//! A registry is assembled once at startup (from freshly built networks
//! or from PVCK checkpoints) and then becomes an immutable snapshot that
//! worker threads clone their private networks from. Admission is
//! guarded: every network must pass the static shape checker
//! ([`Network::infer_shapes`]) before it can be served, so a model that
//! cannot propagate its own declared input shape to its class count is
//! rejected at load time, never discovered mid-request.
//!
//! Admission ([`ModelRegistry::insert`], which every load and reload
//! path goes through) also gives each sparse-enough weight a CSR sidecar,
//! which the packed backend routes through the sparse kernels.
//!
//! Each entry can carry a kernel-backend override
//! ([`ModelRegistry::set_backend`], surfaced by the `serve --backend`
//! CLI flag): workers wrap that model's forward passes in a
//! [`pv_tensor::with_backend`] scope, so one model can be bisected
//! against the scalar oracle on a live server. Entries without an
//! override follow the process default (`PV_BACKEND`).

use pv_ckpt::{read_network_state, Checkpoint};
use pv_nn::Network;
use pv_tensor::error::Result;
use pv_tensor::{Backend, Error};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One admitted model: the network plus its optional kernel-backend
/// override (workers honor it per batch; `None` follows the process
/// default).
#[derive(Clone)]
pub struct ModelEntry {
    /// The shape-validated network.
    pub net: Network,
    /// Kernel backend this model's forward passes must run on, if pinned.
    pub backend: Option<&'static dyn Backend>,
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("backend", &self.backend.map(|b| b.name()))
            .finish_non_exhaustive()
    }
}

/// A named collection of serveable networks (see module docs).
#[derive(Clone, Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, ModelEntry>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ModelRegistry({:?})", self.ids())
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits `net` under `id` after shape validation, building CSR
    /// sidecars for its weights at or below
    /// [`pv_tensor::DEFAULT_MAX_DENSITY`] here, off the request path:
    /// worker threads clone the entry (sidecars are `Arc`-shared) and
    /// never pay the scan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] if the id is empty or already taken, and
    /// [`Error::ShapeMismatch`] if the network fails static shape
    /// inference.
    pub fn insert(&mut self, id: impl Into<String>, mut net: Network) -> Result<()> {
        let id = id.into();
        if id.is_empty() {
            return Err(Error::Serve("model id must be non-empty".into()));
        }
        if self.models.contains_key(&id) {
            return Err(Error::Serve(format!("model id '{id}' already registered")));
        }
        net.infer_shapes()?;
        let built = net.prepare_sparse(pv_tensor::DEFAULT_MAX_DENSITY);
        pv_obs::counter_add("serve/csr_sidecars", built as f64);
        self.models.insert(id, ModelEntry { net, backend: None });
        Ok(())
    }

    /// Admits a network whose state lives in a PVCK checkpoint: loads the
    /// records under `prefix` (e.g. `net/` or `parent/`) into `template`
    /// — a freshly built network of the matching architecture — then
    /// admits the result under `id`.
    ///
    /// # Errors
    ///
    /// Propagates every checkpoint defect as a typed error
    /// ([`Error::CorruptCheckpoint`] / [`Error::ShapeMismatch`]) plus the
    /// admission checks of [`ModelRegistry::insert`].
    pub fn insert_from_checkpoint(
        &mut self,
        id: impl Into<String>,
        ckpt: &Checkpoint,
        prefix: &str,
        mut template: Network,
    ) -> Result<()> {
        read_network_state(&mut template, ckpt, prefix)?;
        self.insert(id, template)
    }

    /// Registered model ids, sorted.
    pub fn ids(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry holds no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Looks up a model by id.
    pub fn get(&self, id: &str) -> Option<&Network> {
        self.models.get(id).map(|e| &e.net)
    }

    /// The declared per-sample input shape of a model, if registered.
    pub fn input_shape(&self, id: &str) -> Option<&[usize]> {
        self.models.get(id).map(|e| e.net.input_shape())
    }

    /// Pins the kernel backend for one model's forward passes (the
    /// scalar oracle to bisect a suspect model, or packed).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] if `id` is not registered.
    pub fn set_backend(&mut self, id: &str, backend: &'static dyn Backend) -> Result<()> {
        match self.models.get_mut(id) {
            Some(entry) => {
                entry.backend = Some(backend);
                Ok(())
            }
            None => Err(Error::Serve(format!(
                "cannot set backend for unknown model '{id}'"
            ))),
        }
    }

    /// The name of the backend pinned for `id`, if any (`None` means the
    /// model follows the process default, or is not registered).
    pub fn backend_name(&self, id: &str) -> Option<&'static str> {
        self.models
            .get(id)
            .and_then(|e| e.backend)
            .map(|b| b.name())
    }

    /// A private, mutable clone of every model entry — what each worker
    /// thread takes at startup (eval-mode forward is pure, so clones stay
    /// interchangeable forever).
    pub fn clone_models(&self) -> BTreeMap<String, ModelEntry> {
        self.models.clone()
    }
}

/// The hot-swappable registry shared by the reactor and the workers: an
/// immutable [`ModelRegistry`] snapshot behind an `Arc`, plus a
/// monotonically increasing **generation** counter.
///
/// Swapping installs a *complete* new snapshot (built and admission-checked
/// off the event loop) and bumps the generation; it never mutates the
/// snapshot in place. Readers take the `Arc` and are immune to later
/// swaps, which is exactly what makes hot reload safe for in-flight
/// requests: a batch admitted against generation *N* executes on a worker
/// clone of generation *N*'s (or a later generation's) models, and either
/// answer is a bitwise-correct forward pass of a fully admitted model.
/// Workers poll [`generation`](SharedRegistry::generation) at batch
/// boundaries and re-clone when it moved, so traffic flips to the new
/// models within one batch without any request ever seeing a half-loaded
/// registry.
pub struct SharedRegistry {
    snapshot: Mutex<Arc<ModelRegistry>>,
    generation: AtomicU64,
}

impl std::fmt::Debug for SharedRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedRegistry(generation {})", self.generation())
    }
}

impl SharedRegistry {
    /// Wraps the startup registry as generation 1.
    pub fn new(registry: ModelRegistry) -> Self {
        Self {
            snapshot: Mutex::new(Arc::new(registry)),
            generation: AtomicU64::new(1),
        }
    }

    /// The current immutable snapshot. Cheap (one `Arc` clone under a
    /// short lock); the returned snapshot stays valid across later swaps.
    pub fn snapshot(&self) -> Arc<ModelRegistry> {
        Arc::clone(
            &self
                .snapshot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// The generation of the current snapshot (starts at 1, bumps on
    /// every [`swap`](SharedRegistry::swap)).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Atomically installs `registry` as the new snapshot and returns the
    /// new generation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Serve`] for an empty registry — a swap must never
    /// leave the server with nothing to serve.
    pub fn swap(&self, registry: ModelRegistry) -> Result<u64> {
        if registry.is_empty() {
            return Err(Error::Serve(
                "refusing to swap in an empty model registry".into(),
            ));
        }
        let next = Arc::new(registry);
        {
            let mut guard = self
                .snapshot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *guard = next;
        }
        // Release pairs with the Acquire in generation(): a worker that
        // observes the bumped counter also observes the new snapshot.
        Ok(self.generation.fetch_add(1, Ordering::Release) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_ckpt::network_to_checkpoint;
    use pv_nn::models;

    fn net(seed: u64) -> Network {
        models::mlp("m", 6, &[8], 3, false, seed)
    }

    #[test]
    fn insert_and_lookup() {
        let mut reg = ModelRegistry::new();
        reg.insert("parent", net(1)).expect("admits");
        reg.insert("cycle00", net(2)).expect("admits");
        assert_eq!(reg.ids(), vec!["cycle00", "parent"]);
        assert_eq!(reg.input_shape("parent"), Some(&[6][..]));
        assert!(reg.get("nope").is_none());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn duplicate_and_empty_ids_rejected() {
        let mut reg = ModelRegistry::new();
        reg.insert("m", net(1)).expect("admits");
        assert!(matches!(reg.insert("m", net(2)), Err(Error::Serve(_))));
        assert!(matches!(reg.insert("", net(3)), Err(Error::Serve(_))));
    }

    #[test]
    fn backend_pinning_per_model() {
        let mut reg = ModelRegistry::new();
        reg.insert("a", net(1)).expect("admits");
        reg.insert("b", net(2)).expect("admits");
        assert_eq!(reg.backend_name("a"), None, "unpinned follows default");
        reg.set_backend("a", &pv_tensor::SCALAR).expect("known id");
        assert_eq!(reg.backend_name("a"), Some("scalar"));
        assert_eq!(reg.backend_name("b"), None);
        let err = reg.set_backend("missing", &pv_tensor::PACKED).unwrap_err();
        assert!(matches!(err, Error::Serve(_)), "{err:?}");
        let clones = reg.clone_models();
        assert_eq!(clones["a"].backend.map(|b| b.name()), Some("scalar"));
        assert!(clones["b"].backend.is_none());
    }

    #[test]
    fn sparse_pinning_builds_csr_sidecars_at_admission() {
        use pv_tensor::Tensor;
        let mut sparse_net = net(5);
        sparse_net.visit_params_named(&mut |name, p| {
            if name == "fc0.weight" {
                let n = p.value.data().len();
                let mask: Vec<f32> = (0..n).map(|i| f32::from(i % 10 == 0)).collect();
                p.set_mask(Tensor::from_vec(p.value.shape().to_vec(), mask));
            }
        });
        let mut reg = ModelRegistry::new();
        reg.insert("s", sparse_net).expect("admits");
        // the retired name pins packed; the sidecar comes from insert
        reg.set_backend("s", &pv_tensor::SPARSE).expect("known id");
        assert_eq!(reg.backend_name("s"), Some("packed"));

        // worker clones share the Arc'd sidecar insert built at admission
        let mut clones = reg.clone_models();
        let mut with_sidecar = Vec::new();
        clones
            .get_mut("s")
            .expect("cloned entry")
            .net
            .visit_params_named(&mut |name, p| {
                if p.value.csr().is_some() {
                    with_sidecar.push(name.to_string());
                }
            });
        assert_eq!(with_sidecar, vec!["fc0.weight"]);
    }

    #[test]
    fn checkpoint_admission_roundtrips() {
        let mut trained = net(7);
        let ckpt = network_to_checkpoint(&mut trained);
        let mut reg = ModelRegistry::new();
        reg.insert_from_checkpoint("restored", &ckpt, "net/", net(99))
            .expect("admits");
        assert_eq!(reg.ids(), vec!["restored"]);
    }

    #[test]
    fn shared_registry_swaps_generations() {
        let mut reg = ModelRegistry::new();
        reg.insert("parent", net(1)).expect("admits");
        let shared = SharedRegistry::new(reg);
        assert_eq!(shared.generation(), 1);
        let before = shared.snapshot();
        assert_eq!(before.ids(), vec!["parent"]);

        let mut next = ModelRegistry::new();
        next.insert("parent", net(2)).expect("admits");
        next.insert("extra", net(3)).expect("admits");
        assert_eq!(shared.swap(next).expect("swaps"), 2);
        assert_eq!(shared.generation(), 2);
        assert_eq!(shared.snapshot().ids(), vec!["extra", "parent"]);
        // the old snapshot is unaffected — in-flight readers keep it
        assert_eq!(before.ids(), vec!["parent"]);

        let err = shared.swap(ModelRegistry::new()).unwrap_err();
        assert!(matches!(err, Error::Serve(_)), "{err:?}");
        assert_eq!(shared.generation(), 2, "failed swap leaves generation");
    }

    #[test]
    fn checkpoint_admission_rejects_wrong_architecture() {
        let mut trained = net(7);
        let ckpt = network_to_checkpoint(&mut trained);
        let mut reg = ModelRegistry::new();
        let wrong = models::mlp("m", 6, &[12], 3, false, 0); // different width
        let err = reg
            .insert_from_checkpoint("restored", &ckpt, "net/", wrong)
            .unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }), "{err:?}");
        assert!(reg.is_empty());
    }
}
