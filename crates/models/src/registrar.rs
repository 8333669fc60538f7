//! The one path every parameter is registered through.
//!
//! An architecture registers its parameters in a fixed order, each with a
//! name, a shape and a way to draw a fresh value. A [`Registrar`] fills
//! them either from an rng — a new model, with the draws in registration
//! order — or from stored tensors, which must arrive in the same order
//! with the same names and shapes. The stored path never draws and never
//! allocates: a config's sizes are only compared against tensors that
//! already exist, so a hostile config cannot make a decode allocate.

use rand::Rng;
use unimatch_tensor::{Param, ParamId, ParamSet, Tensor};

/// Why a config cannot be built, or why stored parameters do not fit it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchitectureError(String);

impl ArchitectureError {
    pub(crate) fn new(msg: impl Into<String>) -> ArchitectureError {
        ArchitectureError(msg.into())
    }
}

impl std::fmt::Display for ArchitectureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArchitectureError {}

enum Source<'a, R> {
    Draw(&'a mut R),
    Stored { params: std::vec::IntoIter<Param>, count: usize },
}

/// Builds a [`ParamSet`] in registration order, drawing each value or
/// taking it from stored tensors.
pub(crate) struct Registrar<'a, R> {
    params: ParamSet,
    source: Source<'a, R>,
}

impl<'a, R: Rng> Registrar<'a, R> {
    /// Draws every parameter from `rng`, in registration order.
    pub(crate) fn draw(rng: &'a mut R) -> Self {
        Registrar { params: ParamSet::new(), source: Source::Draw(rng) }
    }

    /// Takes every parameter from `stored`, in registration order.
    pub(crate) fn stored(stored: Vec<Param>) -> Self {
        let count = stored.len();
        Registrar {
            params: ParamSet::new(),
            source: Source::Stored { params: stored.into_iter(), count },
        }
    }

    /// Registers `name` with `shape`: `draw` makes its value from the rng,
    /// or the next stored tensor must carry this name and shape.
    pub(crate) fn add(
        &mut self,
        name: &str,
        shape: &[usize],
        draw: impl FnOnce(&mut R) -> Tensor,
    ) -> Result<ParamId, ArchitectureError> {
        let value = match &mut self.source {
            Source::Draw(rng) => {
                let value = draw(rng);
                debug_assert_eq!(value.shape().dims(), shape, "{name} drawn in another shape");
                value
            }
            Source::Stored { params, count } => {
                let Some(Param { name: stored, value }) = params.next() else {
                    return Err(ArchitectureError::new(format!(
                        "{count} stored parameters, architecture expects more: {name} is missing"
                    )));
                };
                let dims = value.shape().dims();
                if stored != name || dims != shape {
                    return Err(ArchitectureError::new(format!(
                        "stored parameter {stored} {dims:?} does not match architecture \
                         {name} {shape:?}"
                    )));
                }
                value
            }
        };
        Ok(self.params.add(name, value))
    }

    /// The registered parameters; every stored one must have been taken.
    pub(crate) fn finish(self) -> Result<ParamSet, ArchitectureError> {
        if let Source::Stored { count, .. } = self.source {
            if count != self.params.len() {
                return Err(ArchitectureError::new(format!(
                    "{count} stored parameters, architecture expects {}",
                    self.params.len()
                )));
            }
        }
        Ok(self.params)
    }
}
