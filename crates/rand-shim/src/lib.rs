//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment has no network access, so the real rand cannot be
//! fetched. This crate vendors the tiny subset the workspace uses: the
//! [`RngCore`] trait (implemented by `netsim::SimRng`), the [`Error`] type
//! its `try_fill_bytes` signature requires, and the [`rngs::mock::StepRng`]
//! mock. The simulator's own generators do all the real random
//! number work; this crate only supplies the trait vocabulary.

use std::fmt;

/// Error type for fallible RNG operations (mirrors `rand::Error`).
#[derive(Debug)]
pub struct Error {
    msg: &'static str,
}

impl Error {
    /// Creates an error with a static message.
    pub fn new(msg: &'static str) -> Self {
        Error { msg }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.msg)
    }
}

impl std::error::Error for Error {}

/// The core random number generator trait (mirrors `rand::RngCore`).
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fallible variant of [`RngCore::fill_bytes`].
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
}

/// Mock generators (mirrors `rand::rngs::mock`).
pub mod rngs {
    /// Mock generators for testing.
    pub mod mock {
        use super::super::{Error, RngCore};

        /// A deterministic counter "generator": yields `initial`,
        /// `initial + increment`, `initial + 2*increment`, ... (wrapping).
        #[derive(Debug, Clone)]
        pub struct StepRng {
            value: u64,
            increment: u64,
        }

        impl StepRng {
            /// Creates a generator starting at `initial` stepping by `increment`.
            pub fn new(initial: u64, increment: u64) -> Self {
                StepRng {
                    value: initial,
                    increment,
                }
            }
        }

        impl RngCore for StepRng {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }

            fn next_u64(&mut self) -> u64 {
                let out = self.value;
                self.value = self.value.wrapping_add(self.increment);
                out
            }

            fn fill_bytes(&mut self, dest: &mut [u8]) {
                let mut chunks = dest.chunks_exact_mut(8);
                for chunk in &mut chunks {
                    chunk.copy_from_slice(&self.next_u64().to_le_bytes());
                }
                let rem = chunks.into_remainder();
                if !rem.is_empty() {
                    let bytes = self.next_u64().to_le_bytes();
                    rem.copy_from_slice(&bytes[..rem.len()]);
                }
            }

            fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
                self.fill_bytes(dest);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::mock::StepRng;
    use super::RngCore;

    #[test]
    fn step_rng_steps() {
        let mut rng = StepRng::new(1, 7);
        assert_eq!(rng.next_u64(), 1);
        assert_eq!(rng.next_u64(), 8);
        assert_eq!(rng.next_u32(), 15);
        let mut buf = [0u8; 11];
        rng.try_fill_bytes(&mut buf).unwrap();
        assert_eq!(&buf[..8], &22u64.to_le_bytes());
    }
}
