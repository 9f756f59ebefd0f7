//! Typed simulator faults.
//!
//! The launch path ([`Device::try_launch_spec`]) surfaces injected faults
//! and user-shaped launch mistakes as values instead of panics, so the
//! layers above (trainer failure domains, the serving engine) can exercise
//! real recovery paths.
//!
//! [`Device::try_launch_spec`]: crate::Device::try_launch_spec

use std::error::Error;
use std::fmt;

/// A fault raised by the simulated device layer.
///
/// The first three variants are produced by an attached
/// [`FaultPlan`](crate::FaultPlan) firing at its (device, epoch, kernel)
/// coordinate; `EmptyGrid` is a user-shaped error returned instead of a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimFault {
    /// A kernel launch failed before the grid ran; no device state was
    /// mutated and the device clock did not advance.
    LaunchFailed {
        /// Device ordinal the fault fired on.
        device: usize,
        /// Epoch (training iteration / serving batch) at firing time.
        epoch: u32,
        /// Name of the kernel whose launch failed.
        kernel: String,
    },
    /// Device memory was corrupted during a kernel: the grid ran and the
    /// clock advanced, but the results must be considered garbage.
    MemoryCorrupted {
        /// Device ordinal the fault fired on.
        device: usize,
        /// Epoch (training iteration / serving batch) at firing time.
        epoch: u32,
        /// Name of the kernel whose output region was corrupted.
        kernel: String,
    },
    /// A host↔device or peer link transfer was dropped mid-flight.
    LinkDropped {
        /// Device ordinal on the receiving end.
        device: usize,
        /// Epoch (training iteration / serving batch) at firing time.
        epoch: u32,
    },
    /// A launch was submitted with a zero-block grid (user-shaped input).
    EmptyGrid {
        /// Name of the offending kernel.
        kernel: String,
    },
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFault::LaunchFailed {
                device,
                epoch,
                kernel,
            } => write!(
                f,
                "kernel launch failed: `{kernel}` on gpu {device} at epoch {epoch}"
            ),
            SimFault::MemoryCorrupted {
                device,
                epoch,
                kernel,
            } => write!(
                f,
                "device memory corrupted: `{kernel}` output on gpu {device} at epoch {epoch}"
            ),
            SimFault::LinkDropped { device, epoch } => {
                write!(f, "link transfer dropped to gpu {device} at epoch {epoch}")
            }
            SimFault::EmptyGrid { kernel } => {
                write!(f, "kernel `{kernel}` launched with an empty grid")
            }
        }
    }
}

impl Error for SimFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_coordinate() {
        let f = SimFault::LaunchFailed {
            device: 2,
            epoch: 7,
            kernel: "lda_sample".into(),
        };
        let s = f.to_string();
        assert!(s.contains("gpu 2") && s.contains("epoch 7") && s.contains("lda_sample"));
        let c = SimFault::MemoryCorrupted {
            device: 0,
            epoch: 1,
            kernel: "phi_update".into(),
        };
        assert!(c.to_string().contains("corrupted"));
        let d = SimFault::LinkDropped {
            device: 1,
            epoch: 3,
        };
        assert!(d.to_string().contains("dropped"));
    }
}
