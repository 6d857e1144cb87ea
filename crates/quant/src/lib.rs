//! Quantization substrate for the O-FSCIL reproduction.
//!
//! The paper deploys int8-quantized networks (TQT-style power-of-two
//! thresholds trained with a few quantization-aware epochs) and stores class
//! prototypes in the explicit memory at reduced precision — down to 3 bits
//! per element with no accuracy loss (Fig. 3), which is what makes 100
//! prototypes fit in 9.6 kB.
//!
//! This crate provides:
//!
//! * [`QuantTensor`] — symmetric per-tensor int8 quantization with
//!   power-of-two scales and an i8×i8→i32 integer matmul (the arithmetic a
//!   GAP9 cluster core performs),
//! * [`FakeQuant`] and [`quantize_layer_weights`] — quantize–dequantize
//!   simulation used to measure INT8 accuracy of the full models (Table II),
//!   with weight thresholds from TQT-style power-of-two calibration that
//!   minimises the quantization error,
//! * [`PrototypePrecision`] and [`ExplicitMemoryFootprint`] — the
//!   explicit-memory precision-reduction sweep and size accounting of Fig. 3.
//!
//! # Example
//!
//! ```
//! use ofscil_quant::{PrototypePrecision, ExplicitMemoryFootprint};
//!
//! let p = PrototypePrecision::new(3).unwrap();
//! let stored = p.quantize(&[0.5, -0.25, 0.1, 0.0]);
//! assert_eq!(stored.len(), 4);
//! let footprint = ExplicitMemoryFootprint::new(100, 256, 3);
//! assert!((footprint.kilobytes() - 9.6).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod error;
mod fake;
mod prototype;
mod qtensor;

pub(crate) use calibrate::calibrate_power_of_two;
pub use error::QuantError;
pub use fake::{quantize_layer_weights, FakeQuant};
pub use prototype::{ExplicitMemoryFootprint, PrototypePrecision};
pub(crate) use qtensor::QuantParams;
pub use qtensor::QuantTensor;

/// Result alias used across the quant crate.
pub type Result<T> = std::result::Result<T, QuantError>;
