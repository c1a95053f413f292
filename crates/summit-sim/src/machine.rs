//! The machine model: ORNL Summit, as described in the paper's Sec. V.
//!
//! "Summit has two POWER9 CPUs and six 16 GB NVIDIA V100 GPUs per node.
//! ... The intra-node bandwidth, inter-node bandwidth, and the peak
//! half-precision throughput are 50 GB/s, 12.5 GB/s and 125 Tflop/s per
//! GPU respectively."

/// Static description of a GPU cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// GPUs per node (Summit: 6).
    pub gpus_per_node: usize,
    /// DRAM per GPU in bytes (Summit V100: 16 GiB).
    pub gpu_mem_bytes: u64,
    /// Peak half-precision throughput per GPU, flop/s.
    pub peak_fp16_flops: f64,
    /// NVLink bandwidth between GPUs on the same node, bytes/s.
    pub intra_node_bw: f64,
    /// Injection bandwidth from a node to the interconnect, bytes/s
    /// (shared by the node's GPUs).
    pub inter_node_bw: f64,
    /// Per-message launch latency within a node, seconds.
    pub intra_latency: f64,
    /// Per-message latency across nodes, seconds.
    pub inter_latency: f64,
    /// HBM2 memory bandwidth per GPU, bytes/s (V100: 900 GB/s).
    pub hbm_bw: f64,
    /// GPU kernel launch overhead, seconds.
    pub kernel_launch: f64,
    /// Effective bandwidth of MPI point-to-point transfers between GPU
    /// buffers (Spectrum-MPI staging; far below link speed), bytes/s.
    /// AxoNN's pipeline messages go through MPI, not NCCL.
    pub mpi_bw: f64,
    /// Per-message MPI latency, seconds.
    pub mpi_latency: f64,
}

/// The Summit configuration used throughout the paper's evaluation.
pub const SUMMIT: Machine = Machine {
    gpus_per_node: 6,
    gpu_mem_bytes: 16 * 1024 * 1024 * 1024,
    peak_fp16_flops: 125e12,
    intra_node_bw: 50e9,
    inter_node_bw: 12.5e9,
    intra_latency: 5e-6,
    inter_latency: 15e-6,
    hbm_bw: 900e9,
    kernel_launch: 5e-6,
    mpi_bw: 1.0e9,
    mpi_latency: 20e-6,
};

impl Machine {
    /// MPI point-to-point transfer time between GPU buffers — the cost
    /// model for AxoNN's pipeline messages. Spectrum-MPI stages device
    /// buffers through host memory, so the effective bandwidth is the
    /// same low `mpi_bw` within and across nodes (this is what makes the
    /// paper's measured p2p phase so large at small GPU counts).
    pub fn mpi_p2p_time(&self, bytes: u64, src: usize, dst: usize) -> f64 {
        if src == dst || bytes == 0 {
            return 0.0;
        }
        self.mpi_latency + bytes as f64 / self.mpi_bw
    }

    /// Ring all-reduce over `n` ranks spaced `stride` apart (rank pattern
    /// `{r, r+stride, r+2·stride, …}`), with `gpus_per_node / stride`-ish
    /// groups running concurrently — the general pattern of data-parallel
    /// gradient all-reduces in hybrid parallelism, where `stride` is the
    /// model-parallel degree (`G_inter`, or `tp·pp`).
    ///
    /// NCCL routes intra-node ring segments over NVLink; only the edges
    /// between nodes cross the injection link, and concurrent groups on a
    /// node share it. `stride = 1` recovers the single contiguous global
    /// ring (full injection bandwidth); `stride ≥ gpus_per_node` degrades
    /// to every edge crossing nodes with all `gpus_per_node` ranks
    /// sharing the link.
    pub fn allreduce_time_grouped(&self, bytes: u64, n: usize, stride: usize) -> f64 {
        if n <= 1 || bytes == 0 {
            return 0.0;
        }
        let stride = stride.max(1);
        let members_per_node = (self.gpus_per_node / stride).max(1);
        let (bw, lat) = if n <= members_per_node {
            (self.intra_node_bw, self.intra_latency)
        } else {
            let concurrent_groups = (self.gpus_per_node / members_per_node).max(1);
            (self.inter_node_bw / concurrent_groups as f64, self.inter_latency)
        };
        let steps = 2 * (n - 1);
        steps as f64 * lat + (steps as f64 / n as f64) * bytes as f64 / bw
    }

    /// Ring all-reduce over `n` *node-contiguous* ranks (e.g. one global
    /// data-parallel all-reduce): NCCL orders the ring to traverse all of
    /// a node's GPUs before leaving, so each node's injection link
    /// carries only one ring edge and the full `inter_node_bw` applies.
    /// Concurrent group all-reduces over *strided* ranks (one per
    /// pipeline stage) share the link instead — use
    /// [`Self::allreduce_time_grouped`].
    pub fn allreduce_time_contiguous(&self, bytes: u64, n: usize) -> f64 {
        if n <= 1 || bytes == 0 {
            return 0.0;
        }
        let (bw, lat) = if n <= self.gpus_per_node {
            (self.intra_node_bw, self.intra_latency)
        } else {
            (self.inter_node_bw, self.inter_latency)
        };
        let steps = 2 * (n - 1);
        steps as f64 * lat + (steps as f64 / n as f64) * bytes as f64 / bw
    }

    /// All-gather time over `n` GPUs where each rank contributes
    /// `bytes / n` and ends with the full `bytes` (ring model): half the
    /// all-reduce cost.
    pub fn allgather_time(&self, bytes: u64, n: usize) -> f64 {
        if n <= 1 || bytes == 0 {
            return 0.0;
        }
        let (bw, lat) = if n <= self.gpus_per_node {
            (self.intra_node_bw, self.intra_latency)
        } else {
            let per_node = self.gpus_per_node.min(n);
            (self.inter_node_bw / per_node as f64, self.inter_latency)
        };
        let steps = n - 1;
        steps as f64 * lat + (steps as f64 / n as f64) * bytes as f64 / bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_spec_matches_paper() {
        assert_eq!(SUMMIT.gpus_per_node, 6);
        assert_eq!(SUMMIT.gpu_mem_bytes, 17_179_869_184);
        assert_eq!(SUMMIT.peak_fp16_flops, 125e12);
        assert_eq!(SUMMIT.intra_node_bw, 50e9);
        assert_eq!(SUMMIT.inter_node_bw, 12.5e9);
    }

    #[test]
    fn allgather_is_half_a_contiguous_allreduce_within_a_node() {
        // allreduce = reduce-scatter + all-gather, the same ring twice.
        // Holds exactly within a node; across nodes `allgather_time`
        // models strided (shared-link) groups while
        // `allreduce_time_contiguous` models a node-contiguous ring.
        for &n in &[2usize, 4, 6] {
            let bytes = 50_000_000;
            let ag = SUMMIT.allgather_time(bytes, n);
            let ar = SUMMIT.allreduce_time_contiguous(bytes, n);
            assert!((2.0 * ag - ar).abs() < 1e-9, "n={n}: 2·{ag} vs {ar}");
        }
        assert_eq!(SUMMIT.allgather_time(1000, 1), 0.0);
        assert_eq!(SUMMIT.allreduce_time_contiguous(0, 8), 0.0);
    }
}
