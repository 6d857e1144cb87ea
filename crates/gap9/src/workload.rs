//! Deployment workload descriptors.

/// Kernel family of a deployed layer; determines the sustained throughput and
/// the unit of parallelisation used by the latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KernelClass {
    /// Standard or pointwise convolution (including inverted-residual blocks).
    Convolution,
    /// Depthwise convolution.
    Depthwise,
    /// Fully connected / matrix–vector kernel.
    Linear,
    /// Normalisation, activation, pooling and other memory-bound kernels.
    MemoryBound,
}

/// One deployed layer: everything the latency and power models need.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWorkload {
    /// Layer display name.
    pub name: String,
    /// Kernel family.
    pub(crate) kernel: KernelClass,
    /// Multiply-accumulate operations for one sample.
    pub macs: u64,
    /// Resident weight bytes (int8 deployment: one byte per parameter).
    pub weight_bytes: u64,
    /// Input activation bytes.
    pub input_bytes: u64,
    /// Output activation bytes.
    pub output_bytes: u64,
    /// Independent work units available for parallelisation (output pixels
    /// for convolutions, output neurons for linear layers).
    pub parallel_units: u64,
}

impl LayerWorkload {
    /// Total bytes that must transit the DMA for one execution of the layer.
    pub(crate) fn dma_bytes(&self) -> u64 {
        self.weight_bytes + self.input_bytes + self.output_bytes
    }

    /// Working-set bytes that must coexist in L1 for one tile.
    pub fn working_set_bytes(&self) -> u64 {
        self.dma_bytes()
    }
}

/// A deployed network: an ordered list of layer workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkWorkload {
    /// Network display name.
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<LayerWorkload>,
    /// Forces the latency model to stream weights from L3 even when this
    /// network alone would fit in L2 — used for components (such as the FCR)
    /// that share the on-chip memory with a backbone that already overflows
    /// it.
    pub(crate) force_l3_weights: bool,
}

impl NetworkWorkload {
    /// Total MACs of one forward pass.
    pub(crate) fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total resident weight bytes.
    pub fn total_weight_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes).sum()
    }

    /// Number of deployed layers.
    pub(crate) fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_layer(macs: u64, weights: u64) -> LayerWorkload {
        LayerWorkload {
            name: "conv".into(),
            kernel: KernelClass::Convolution,
            macs,
            weight_bytes: weights,
            input_bytes: 100,
            output_bytes: 200,
            parallel_units: 64,
        }
    }

    #[test]
    fn byte_accounting() {
        let layer = toy_layer(1000, 300);
        assert_eq!(layer.dma_bytes(), 600);
        assert_eq!(layer.working_set_bytes(), 600);
    }

    #[test]
    fn network_totals() {
        let net = NetworkWorkload {
            name: "toy".into(),
            layers: vec![toy_layer(1000, 300), toy_layer(2000, 700)],
            force_l3_weights: false,
        };
        assert_eq!(net.total_macs(), 3000);
        assert_eq!(net.total_weight_bytes(), 1000);
        assert_eq!(net.num_layers(), 2);
        assert!(!net.is_empty());
    }
}
