//! # accrt — the OpenACC-style runtime
//!
//! Executes programs compiled by [`uhacc_core`] on the [`gpsim`] simulated
//! device: host data environment (scalar and array bindings), data-clause
//! transfers, kernel launches, second-pass reduction kernels, and
//! gang-reduction result folds. The host side — bindings, extents and the
//! concrete expression evaluator — is [`host`], which the sequential CPU
//! reference runs too.
//!
//! ```
//! use accrt::{AccRunner, HostBuffer};
//! use gpsim::Value;
//!
//! let src = r#"
//!     int N; int s;
//!     int a[N];
//!     s = 0;
//!     #pragma acc parallel copyin(a) num_gangs(4) vector_length(32)
//!     {
//!         #pragma acc loop gang vector reduction(+:s)
//!         for (int i = 0; i < N; i++) { s += a[i]; }
//!     }
//! "#;
//! let mut r = AccRunner::new(src).unwrap();
//! r.bind_int("N", 100).unwrap();
//! r.bind_array("a", HostBuffer::from_i32(&vec![1; 100])).unwrap();
//! r.run().unwrap();
//! assert_eq!(r.scalar("s").unwrap(), Value::I32(100));
//! ```

pub mod cache;
pub mod error;
pub mod host;
pub mod hostbuf;
pub mod runner;

pub use cache::{Cache, CacheCounters, RegionCache, RegionKey};
pub use error::AccError;
pub use host::Host;
pub use hostbuf::HostBuffer;
pub use runner::{AccRunner, RunnerObs};
