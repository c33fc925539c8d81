//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment has no network access, so the real rand cannot be
//! fetched. This crate vendors the tiny subset the workspace uses: the
//! [`RngCore`] trait (implemented by `netsim::SimRng`) and the [`Error`]
//! type its `try_fill_bytes` signature requires. The simulator's own
//! generators do all the real random number work; this crate only supplies
//! the trait vocabulary.

use std::fmt;

/// Error type for fallible RNG operations (mirrors `rand::Error`).
#[derive(Debug)]
pub struct Error {
    msg: &'static str,
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
