//! Output checks: the benchmark's own key → size model and the
//! invariants every store must satisfy against it.
//!
//! The model is built only from what the program acknowledged: the ops a
//! successful phase carried, and the completions the server returned.
//! Each check appends a human-readable failure; an empty list is a pass.

use std::collections::BTreeMap;

use lor_core::fragmentation::fragments_from_layout;
use lor_core::lor_disksim::ByteRun;
use lor_core::{Completion, ObjectKey, ObjectStore, WorkloadOp};

/// The sizes the repository acknowledged, per key.
#[derive(Debug, Default, Clone)]
pub struct Model {
    sizes: BTreeMap<u64, u64>,
    /// Keys whose last write returned an error (or sat in a phase that
    /// aborted): either the previous or the attempted version may be in
    /// place.  `None` means "absent".
    doubt: BTreeMap<u64, [Option<u64>; 2]>,
}

impl Model {
    /// Applies an acknowledged operation.
    pub fn ack(&mut self, op: &WorkloadOp) {
        match *op {
            WorkloadOp::Put { key, size } | WorkloadOp::SafeWrite { key, size } => {
                self.doubt.remove(&key.0);
                self.sizes.insert(key.0, size);
            }
            WorkloadOp::Delete { key } => {
                self.doubt.remove(&key.0);
                self.sizes.remove(&key.0);
            }
            WorkloadOp::Get { .. } => {}
        }
    }

    /// Applies a write that was submitted but not acknowledged.
    pub fn unsure(&mut self, op: &WorkloadOp) {
        let (key, attempted) = match *op {
            WorkloadOp::Put { key, size } | WorkloadOp::SafeWrite { key, size } => {
                (key.0, Some(size))
            }
            WorkloadOp::Delete { key } => (key.0, None),
            WorkloadOp::Get { .. } => return,
        };
        let before = match self.doubt.remove(&key) {
            Some([old, _]) => old,
            None => self.sizes.remove(&key),
        };
        self.doubt.insert(key, [before, attempted]);
    }

    /// The acknowledged size of `key`, unless the key is in doubt.
    pub fn size(&self, key: ObjectKey) -> Option<u64> {
        self.sizes.get(&key.0).copied()
    }

    /// `true` if some write to `key` failed and left its state open.
    pub fn in_doubt(&self, key: ObjectKey) -> bool {
        self.doubt.contains_key(&key.0)
    }

    /// Keys with a certain size.
    pub fn entries(&self) -> impl Iterator<Item = (ObjectKey, u64)> + '_ {
        self.sizes
            .iter()
            .map(|(&key, &size)| (ObjectKey(key), size))
    }

    /// Keys in doubt with the two states they may be in.
    pub fn doubts(&self) -> impl Iterator<Item = (ObjectKey, [Option<u64>; 2])> + '_ {
        self.doubt
            .iter()
            .map(|(&key, &states)| (ObjectKey(key), states))
    }
}

/// Walks measured completions in the order the server served them: every
/// `Get` must return its key's last acknowledged size, and every write
/// updates the model.
pub fn walk_completions(model: &mut Model, completions: &[Completion], failures: &mut Vec<String>) {
    for completion in completions {
        let op = &completion.request.op;
        if let WorkloadOp::Get { key } = *op {
            if model.in_doubt(key) {
                continue;
            }
            let got = completion.receipt.payload_bytes;
            if model.size(key) != Some(got) {
                failures.push(format!(
                    "get {key} returned {got} bytes, last acknowledged size {:?}",
                    model.size(key)
                ));
            }
        }
        model.ack(op);
    }
}

/// Checks one store against the part of the model it holds (`owns` picks
/// the keys; everything for a single store): sizes, count, live bytes,
/// non-overlapping layouts, and incremental fragmentation against an
/// extent walk.
pub fn check_store(
    label: &str,
    store: &dyn ObjectStore,
    model: &Model,
    owns: &dyn Fn(ObjectKey) -> bool,
    failures: &mut Vec<String>,
) {
    let mut key_buf = ObjectKey::buf();
    let mut expected_count = 0usize;
    let mut expected_bytes = 0u64;
    for (key, size) in model.entries().filter(|(key, _)| owns(*key)) {
        expected_count += 1;
        expected_bytes += size;
        match store.size_of(key.write_into(&mut key_buf)) {
            Ok(got) if got == size => {}
            Ok(got) => failures.push(format!(
                "{label}: {key} is {got} bytes, last acknowledged {size}"
            )),
            Err(err) => failures.push(format!("{label}: acknowledged {key} unreadable: {err}")),
        }
    }
    for (key, states) in model.doubts().filter(|(key, _)| owns(*key)) {
        let name = key.write_into(&mut key_buf);
        let actual = store
            .contains(name)
            .then(|| store.size_of(name).ok())
            .flatten();
        if !states.contains(&actual) {
            failures.push(format!(
                "{label}: {key} after a failed write is {actual:?}, expected one of {states:?}"
            ));
        }
        if let Some(size) = actual {
            expected_count += 1;
            expected_bytes += size;
        }
    }
    if store.object_count() != expected_count {
        failures.push(format!(
            "{label}: object_count {} but the model holds {expected_count}",
            store.object_count()
        ));
    }
    if store.live_bytes() != expected_bytes {
        failures.push(format!(
            "{label}: live_bytes {} but the model holds {expected_bytes}",
            store.live_bytes()
        ));
    }

    let mut runs: Vec<ByteRun> = Vec::new();
    let mut walked_fragments = 0u64;
    let keys = store.keys();
    for key in &keys {
        match store.layout_of(key) {
            Ok(layout) => {
                walked_fragments += fragments_from_layout(&layout);
                runs.extend(layout.into_iter().filter(|run| run.len > 0));
            }
            Err(err) => failures.push(format!("{label}: layout of {key} unreadable: {err}")),
        }
    }
    runs.sort_unstable_by_key(|run| run.offset);
    if let Some(pair) = runs.windows(2).find(|pair| pair[0].end() > pair[1].offset) {
        failures.push(format!(
            "{label}: layouts overlap: {:?} and {:?}",
            pair[0], pair[1]
        ));
    }
    let summary = store.fragmentation();
    if summary.total_fragments != walked_fragments || summary.objects != keys.len() {
        failures.push(format!(
            "{label}: fragmentation() reports {} fragments over {} objects, the extent walk {} over {}",
            summary.total_fragments,
            summary.objects,
            walked_fragments,
            keys.len()
        ));
    }
}
