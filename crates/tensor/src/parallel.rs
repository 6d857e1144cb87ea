//! Thread-count policy for CPU-bound kernels.

/// Returns a reasonable number of worker threads for CPU-bound kernels.
///
/// The value is `min(available_parallelism, 8)` and never less than one; the
/// cap keeps thread spawn overhead small for the modest matrix sizes used by
/// the O-FSCIL models.
pub fn recommended_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_threads_is_positive() {
        assert!(recommended_threads() >= 1);
        assert!(recommended_threads() <= 8);
    }
}
