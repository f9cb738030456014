//! GPU device descriptions.

use serde::{Deserialize, Serialize};

/// Static description of a CUDA-class GPU.
///
/// The numbers drive the occupancy and roofline calculations in
/// [`crate::perf`]. Presets are provided for the paper's test device and two
/// extension targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuDevice {
    /// Marketing name, e.g. `"GTX 1080 Ti"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// FP32 lanes (CUDA cores) per SM.
    pub fp32_lanes_per_sm: usize,
    /// Sustained clock in GHz.
    pub clock_ghz: f64,
    /// DRAM bandwidth in GB/s.
    pub dram_bw_gbps: f64,
    /// Shared memory per SM in bytes.
    pub smem_per_sm: usize,
    /// Register file per SM (32-bit registers).
    pub regs_per_sm: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Warp size (32 on every CUDA GPU to date).
    pub warp_size: usize,
    /// Kernel launch overhead in seconds (driver + runtime).
    pub launch_overhead_s: f64,
}

impl GpuDevice {
    /// Peak FP32 throughput in FLOP/s (2 ops per FMA lane per cycle).
    #[must_use]
    pub fn peak_flops(&self) -> f64 {
        self.num_sms as f64 * self.fp32_lanes_per_sm as f64 * 2.0 * self.clock_ghz * 1e9
    }

    /// Maximum resident warps per SM.
    #[must_use]
    pub fn max_warps_per_sm(&self) -> usize {
        self.max_threads_per_sm / self.warp_size
    }

    /// Resolves a device preset name, accepting `1080ti` and `tx2`.
    ///
    /// # Errors
    ///
    /// Returns an error listing the valid names.
    pub fn by_name(name: &str) -> Result<GpuDevice, String> {
        match name {
            "gtx1080ti" | "1080ti" => Ok(GpuDevice::gtx_1080_ti()),
            "v100" => Ok(GpuDevice::tesla_v100()),
            "jetson" | "tx2" => Ok(GpuDevice::jetson_tx2()),
            other => Err(format!("unknown device `{other}` (gtx1080ti, v100, jetson)")),
        }
    }

    /// The paper's test device: Nvidia GeForce GTX 1080 Ti (Pascal GP102).
    #[must_use]
    pub fn gtx_1080_ti() -> Self {
        GpuDevice {
            name: "GTX 1080 Ti".to_string(),
            num_sms: 28,
            fp32_lanes_per_sm: 128,
            clock_ghz: 1.58,
            dram_bw_gbps: 484.0,
            smem_per_sm: 96 * 1024,
            regs_per_sm: 65_536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            warp_size: 32,
            launch_overhead_s: 2.5e-6,
        }
    }

    /// Extension target: Tesla V100 (Volta GV100, 80 SMs, HBM2).
    #[must_use]
    pub fn tesla_v100() -> Self {
        GpuDevice {
            name: "Tesla V100".to_string(),
            num_sms: 80,
            fp32_lanes_per_sm: 64,
            clock_ghz: 1.53,
            dram_bw_gbps: 900.0,
            smem_per_sm: 96 * 1024,
            regs_per_sm: 65_536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            warp_size: 32,
            launch_overhead_s: 2.5e-6,
        }
    }

    /// Extension target: an embedded Jetson-class device (small SM count,
    /// low bandwidth) to exercise crossover behaviour.
    #[must_use]
    pub fn jetson_tx2() -> Self {
        GpuDevice {
            name: "Jetson TX2".to_string(),
            num_sms: 2,
            fp32_lanes_per_sm: 128,
            clock_ghz: 1.3,
            dram_bw_gbps: 59.7,
            smem_per_sm: 64 * 1024,
            regs_per_sm: 65_536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            warp_size: 32,
            launch_overhead_s: 6.0e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx_1080_ti_peak_is_11_tflops() {
        let d = GpuDevice::gtx_1080_ti();
        let peak = d.peak_flops();
        assert!((peak - 11.3e12).abs() < 0.2e12, "peak {peak}");
    }

    #[test]
    fn warp_capacity() {
        let d = GpuDevice::gtx_1080_ti();
        assert_eq!(d.max_warps_per_sm(), 64);
    }

    #[test]
    fn presets_differ() {
        assert_ne!(GpuDevice::gtx_1080_ti(), GpuDevice::tesla_v100());
        assert!(GpuDevice::jetson_tx2().peak_flops() < GpuDevice::gtx_1080_ti().peak_flops());
    }
}
