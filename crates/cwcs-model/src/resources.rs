//! Resource quantities and the generalized N-dimensional resource vector.
//!
//! The paper models two resource dimensions (Section 3.2): the **capacity of
//! processing units** of a node and its **memory capacity**, against the CPU
//! and memory **demands** of the VMs it hosts.  Real virtualized clusters are
//! frequently network- or disk-bound as well, so this module generalizes the
//! pair to a fixed small-N [`ResourceVector`] — currently CPU, memory and
//! **network bandwidth** — indexed by [`Dimension`].  Finding a viable
//! configuration is then an N-dimensional bin-packing / multiple-knapsack
//! problem: one capacity constraint per dimension.
//!
//! Units per dimension:
//!
//! * **CPU** is counted in *processing units* scaled by [`CPU_UNIT`], so that
//!   a VM may demand a fraction of a core (an idle NAS-Grid VM demands close
//!   to zero, a computing VM demands one full unit).
//! * **Memory** is counted in MiB.
//! * **Network** is counted in Mbit/s of NIC bandwidth ([`NetBandwidth`]).
//!
//! # Adding a dimension
//!
//! The stack is generic over [`Dimension::ALL`]: viability checks
//! ([`ResourceVector::fits_in`]), the First-Fit-Decreasing packer, the
//! solver's per-dimension packing constraints and the repair halo's
//! scarcest-dimension ranking all iterate the dimensions instead of naming
//! them.  To add a dimension (e.g. disk I/O):
//!
//! 1. add a typed quantity (like [`NetBandwidth`]) and a field on
//!    [`ResourceVector`];
//! 2. add the [`Dimension`] variant and extend [`Dimension::ALL`],
//!    [`ResourceVector::dims`], [`ResourceVector::from_dims`] and
//!    [`ResourceVector::get`];
//! 3. give nodes a capacity and VMs a demand for it (see [`crate::Node`] and
//!    [`crate::Vm`]).
//!
//! Everything downstream — packing, halo ranking, overload accounting —
//! picks the new dimension up without further changes.  A dimension whose
//! demands are all zero is inert: the vector behaves bit-identically to the
//! legacy (CPU, memory) pair, which is what keeps the paper's 2-dimensional
//! experiments unchanged.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Scale factor of one processing unit: a full core is `CPU_UNIT` capacity
/// points, so demands can be expressed with 1% granularity.
pub const CPU_UNIT: u32 = 100;

/// Number of resource dimensions of a [`ResourceVector`].
pub const NUM_RESOURCE_DIMENSIONS: usize = 3;

/// One resource dimension of the packing model.
///
/// The first two dimensions are the paper's original (CPU, memory) pair; the
/// third is the per-node NIC bandwidth.  Algorithms iterate
/// [`Dimension::ALL`] so that adding a dimension does not require touching
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dimension {
    /// Processing units, in hundredths of a unit (`Cc` / `Dc`).
    Cpu,
    /// Memory, in MiB (`Cm` / `Dm`).
    Memory,
    /// Network bandwidth, in Mbit/s.
    Network,
}

impl Dimension {
    /// Every dimension, in packing order (the legacy pair first).
    pub const ALL: [Dimension; NUM_RESOURCE_DIMENSIONS] =
        [Dimension::Cpu, Dimension::Memory, Dimension::Network];

    /// Index of this dimension inside [`ResourceVector::dims`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// True for the paper's original (CPU, memory) pair.  The solver posts a
    /// packing constraint for legacy dimensions unconditionally, and for the
    /// others only when some demand is nonzero, so the N=2 search is
    /// bit-identical to the historical model.
    pub const fn is_legacy(self) -> bool {
        matches!(self, Dimension::Cpu | Dimension::Memory)
    }
}

/// CPU capacity or demand, in hundredths of a processing unit.
///
/// `CpuCapacity::cores(2)` is a dual-core node; `CpuCapacity::percent(50)` is
/// a VM using half a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuCapacity(pub u32);

impl CpuCapacity {
    /// Zero CPU demand.
    pub const ZERO: CpuCapacity = CpuCapacity(0);

    /// Capacity of `n` full cores / processing units.
    pub const fn cores(n: u32) -> Self {
        CpuCapacity(n * CPU_UNIT)
    }

    /// Demand expressed as a percentage of one core.
    pub const fn percent(p: u32) -> Self {
        CpuCapacity(p)
    }

    /// Raw value in hundredths of a processing unit.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Saturating subtraction, useful when computing remaining capacity.
    pub fn saturating_sub(self, other: CpuCapacity) -> CpuCapacity {
        CpuCapacity(self.0.saturating_sub(other.0))
    }
}

impl Add for CpuCapacity {
    type Output = CpuCapacity;
    fn add(self, rhs: CpuCapacity) -> CpuCapacity {
        CpuCapacity(self.0 + rhs.0)
    }
}

impl AddAssign for CpuCapacity {
    fn add_assign(&mut self, rhs: CpuCapacity) {
        self.0 += rhs.0;
    }
}

impl Sub for CpuCapacity {
    type Output = CpuCapacity;
    fn sub(self, rhs: CpuCapacity) -> CpuCapacity {
        CpuCapacity(self.0 - rhs.0)
    }
}

impl SubAssign for CpuCapacity {
    fn sub_assign(&mut self, rhs: CpuCapacity) {
        self.0 -= rhs.0;
    }
}

impl Sum for CpuCapacity {
    fn sum<I: Iterator<Item = CpuCapacity>>(iter: I) -> CpuCapacity {
        iter.fold(CpuCapacity::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for CpuCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % CPU_UNIT == 0 {
            write!(f, "{}pu", self.0 / CPU_UNIT)
        } else {
            write!(f, "{:.2}pu", self.0 as f64 / CPU_UNIT as f64)
        }
    }
}

/// Memory capacity or demand, in MiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemoryMib(pub u64);

impl MemoryMib {
    /// Zero memory demand.
    pub const ZERO: MemoryMib = MemoryMib(0);

    /// Memory expressed in MiB.
    pub const fn mib(n: u64) -> Self {
        MemoryMib(n)
    }

    /// Memory expressed in GiB.
    pub const fn gib(n: u64) -> Self {
        MemoryMib(n * 1024)
    }

    /// Raw value in MiB.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction, useful when computing remaining capacity.
    pub fn saturating_sub(self, other: MemoryMib) -> MemoryMib {
        MemoryMib(self.0.saturating_sub(other.0))
    }

    /// True when this demand fits in `capacity`.
    pub fn fits_in(self, capacity: MemoryMib) -> bool {
        self.0 <= capacity.0
    }
}

impl Add for MemoryMib {
    type Output = MemoryMib;
    fn add(self, rhs: MemoryMib) -> MemoryMib {
        MemoryMib(self.0 + rhs.0)
    }
}

impl AddAssign for MemoryMib {
    fn add_assign(&mut self, rhs: MemoryMib) {
        self.0 += rhs.0;
    }
}

impl Sub for MemoryMib {
    type Output = MemoryMib;
    fn sub(self, rhs: MemoryMib) -> MemoryMib {
        MemoryMib(self.0 - rhs.0)
    }
}

impl SubAssign for MemoryMib {
    fn sub_assign(&mut self, rhs: MemoryMib) {
        self.0 -= rhs.0;
    }
}

impl Sum for MemoryMib {
    fn sum<I: Iterator<Item = MemoryMib>>(iter: I) -> MemoryMib {
        iter.fold(MemoryMib::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for MemoryMib {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 && self.0 % 1024 == 0 {
            write!(f, "{}GiB", self.0 / 1024)
        } else {
            write!(f, "{}MiB", self.0)
        }
    }
}

/// Network bandwidth capacity or demand, in Mbit/s.
///
/// For a node this is the usable NIC bandwidth (`Cn`); for a VM it is the
/// sustained bandwidth its application currently pushes (`Dn`), e.g. during
/// the transfer phases of a NAS-Grid data-flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NetBandwidth(pub u64);

impl NetBandwidth {
    /// Zero network demand.
    pub const ZERO: NetBandwidth = NetBandwidth(0);

    /// Bandwidth expressed in Mbit/s.
    pub const fn mbps(n: u64) -> Self {
        NetBandwidth(n)
    }

    /// Bandwidth expressed in Gbit/s.
    pub const fn gbps(n: u64) -> Self {
        NetBandwidth(n * 1000)
    }

    /// Raw value in Mbit/s.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl Add for NetBandwidth {
    type Output = NetBandwidth;
    fn add(self, rhs: NetBandwidth) -> NetBandwidth {
        NetBandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for NetBandwidth {
    fn add_assign(&mut self, rhs: NetBandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for NetBandwidth {
    type Output = NetBandwidth;
    fn sub(self, rhs: NetBandwidth) -> NetBandwidth {
        NetBandwidth(self.0 - rhs.0)
    }
}

impl SubAssign for NetBandwidth {
    fn sub_assign(&mut self, rhs: NetBandwidth) {
        self.0 -= rhs.0;
    }
}

impl Sum for NetBandwidth {
    fn sum<I: Iterator<Item = NetBandwidth>>(iter: I) -> NetBandwidth {
        iter.fold(NetBandwidth::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for NetBandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000 && self.0 % 1000 == 0 {
            write!(f, "{}Gbps", self.0 / 1000)
        } else {
            write!(f, "{}Mbps", self.0)
        }
    }
}

/// An N-dimensional resource quantity: the generalized form of the paper's
/// `(Dc, Dm)` demand pair, extended with network bandwidth.
///
/// The typed fields give ergonomic access to the individual dimensions;
/// [`ResourceVector::dims`], [`ResourceVector::from_dims`] and
/// [`ResourceVector::get`] expose the same data as a fixed small-N array so
/// that packing algorithms can iterate [`Dimension::ALL`] instead of naming
/// dimensions.  All algebra (`fits_in`, addition, saturating subtraction,
/// component-wise max) is implemented over the array view, so it extends
/// automatically with the dimension count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ResourceVector {
    /// CPU, in hundredths of a processing unit (`Dc` / `Cc`).
    pub cpu: CpuCapacity,
    /// Memory, in MiB (`Dm` / `Cm`).
    pub memory: MemoryMib,
    /// Network bandwidth, in Mbit/s (`Dn` / `Cn`).
    pub net: NetBandwidth,
}

/// The historical name of the 2-dimensional demand vector; every layer now
/// works on the generalized [`ResourceVector`].
pub type ResourceDemand = ResourceVector;

impl ResourceVector {
    /// No demand at all.
    pub const ZERO: ResourceVector = ResourceVector {
        cpu: CpuCapacity::ZERO,
        memory: MemoryMib::ZERO,
        net: NetBandwidth::ZERO,
    };

    /// Build a vector from the legacy (CPU, memory) pair; the network
    /// dimension is zero.
    pub const fn new(cpu: CpuCapacity, memory: MemoryMib) -> Self {
        ResourceVector {
            cpu,
            memory,
            net: NetBandwidth::ZERO,
        }
    }

    /// Replace the network dimension.
    pub const fn with_net(mut self, net: NetBandwidth) -> Self {
        self.net = net;
        self
    }

    /// The vector as a fixed array, indexed by [`Dimension::index`].
    pub const fn dims(&self) -> [u64; NUM_RESOURCE_DIMENSIONS] {
        [self.cpu.0 as u64, self.memory.0, self.net.0]
    }

    /// Rebuild a vector from its array form.
    ///
    /// The CPU dimension is stored in 32 bits; a larger value saturates
    /// (real capacities are far below `u32::MAX` hundredths of a unit).
    pub fn from_dims(dims: [u64; NUM_RESOURCE_DIMENSIONS]) -> Self {
        ResourceVector {
            cpu: CpuCapacity(u32::try_from(dims[Dimension::Cpu.index()]).unwrap_or(u32::MAX)),
            memory: MemoryMib(dims[Dimension::Memory.index()]),
            net: NetBandwidth(dims[Dimension::Network.index()]),
        }
    }

    /// Raw value of one dimension.
    pub const fn get(&self, dim: Dimension) -> u64 {
        self.dims()[dim.index()]
    }

    /// True when every dimension of this demand fits in `capacity`.
    pub fn fits_in(&self, capacity: &ResourceVector) -> bool {
        let (a, b) = (self.dims(), capacity.dims());
        Dimension::ALL.iter().all(|d| a[d.index()] <= b[d.index()])
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &ResourceVector) -> ResourceVector {
        let (mut a, b) = (self.dims(), other.dims());
        for d in Dimension::ALL {
            a[d.index()] = a[d.index()].saturating_sub(b[d.index()]);
        }
        ResourceVector::from_dims(a)
    }

    /// Component-wise maximum (used to combine observed demands with
    /// reservations).
    pub fn component_max(&self, other: &ResourceVector) -> ResourceVector {
        let (mut a, b) = (self.dims(), other.dims());
        for d in Dimension::ALL {
            a[d.index()] = a[d.index()].max(b[d.index()]);
        }
        ResourceVector::from_dims(a)
    }

    /// True when every dimension is zero.
    pub fn is_zero(&self) -> bool {
        self.dims().iter().all(|&v| v == 0)
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        let (mut a, b) = (self.dims(), rhs.dims());
        for d in Dimension::ALL {
            a[d.index()] += b[d.index()];
        }
        ResourceVector::from_dims(a)
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> ResourceVector {
        iter.fold(ResourceVector::ZERO, |acc, x| acc + x)
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The network dimension only prints when it carries something, so the
        // legacy 2-dimensional output is unchanged.
        if self.net == NetBandwidth::ZERO {
            write!(f, "({}, {})", self.cpu, self.memory)
        } else {
            write!(f, "({}, {}, {})", self.cpu, self.memory, self.net)
        }
    }
}

/// Aggregated resource usage of a node: how much of its capacity is consumed
/// by the running VMs it hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// Total demand of the hosted running VMs.
    pub used: ResourceVector,
    /// Capacity of the node.
    pub capacity: ResourceVector,
}

impl ResourceUsage {
    /// Build a usage report for a node of the given capacity with nothing on
    /// it yet.
    pub fn empty(capacity: ResourceVector) -> Self {
        ResourceUsage {
            used: ResourceVector::ZERO,
            capacity,
        }
    }

    /// Remaining free resources (component-wise, saturating at zero).
    pub fn free(&self) -> ResourceVector {
        self.capacity.saturating_sub(&self.used)
    }

    /// True when the used amount does not exceed the capacity on any
    /// dimension.
    pub fn is_within_capacity(&self) -> bool {
        self.used.fits_in(&self.capacity)
    }

    /// True when `demand` can be added without exceeding the capacity.
    pub fn can_host(&self, demand: &ResourceVector) -> bool {
        (self.used + *demand).fits_in(&self.capacity)
    }

    /// Account for an extra hosted demand.
    pub fn add(&mut self, demand: &ResourceVector) {
        self.used += *demand;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_units_and_percent() {
        assert_eq!(CpuCapacity::cores(2).raw(), 200);
        assert_eq!(CpuCapacity::percent(50).raw(), 50);
    }

    #[test]
    fn cpu_arithmetic() {
        let a = CpuCapacity::cores(1);
        let b = CpuCapacity::percent(50);
        assert_eq!((a + b).raw(), 150);
        assert_eq!((a - b).raw(), 50);
        assert_eq!(b.saturating_sub(a), CpuCapacity::ZERO);
        let total: CpuCapacity = [a, b, b].into_iter().sum();
        assert_eq!(total.raw(), 200);
    }

    #[test]
    fn memory_arithmetic() {
        let a = MemoryMib::gib(4);
        let b = MemoryMib::mib(512);
        assert_eq!((a + b).raw(), 4096 + 512);
        assert_eq!((a - b).raw(), 4096 - 512);
        assert_eq!(b.saturating_sub(a), MemoryMib::ZERO);
        assert!(b.fits_in(a));
        assert!(!a.fits_in(b));
    }

    #[test]
    fn net_arithmetic() {
        let a = NetBandwidth::gbps(1);
        let b = NetBandwidth::mbps(250);
        assert_eq!((a + b).raw(), 1250);
        assert_eq!((a - b).raw(), 750);
        let total: NetBandwidth = [b, b].into_iter().sum();
        assert_eq!(total.raw(), 500);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CpuCapacity::cores(2).to_string(), "2pu");
        assert_eq!(CpuCapacity::percent(50).to_string(), "0.50pu");
        assert_eq!(MemoryMib::gib(2).to_string(), "2GiB");
        assert_eq!(MemoryMib::mib(512).to_string(), "512MiB");
        assert_eq!(NetBandwidth::gbps(1).to_string(), "1Gbps");
        assert_eq!(NetBandwidth::mbps(150).to_string(), "150Mbps");
    }

    #[test]
    fn vector_display_hides_a_zero_net_dimension() {
        let legacy = ResourceVector::new(CpuCapacity::cores(2), MemoryMib::gib(4));
        assert_eq!(legacy.to_string(), "(2pu, 4GiB)");
        let netful = legacy.with_net(NetBandwidth::mbps(500));
        assert_eq!(netful.to_string(), "(2pu, 4GiB, 500Mbps)");
    }

    #[test]
    fn dimension_round_trip() {
        let v = ResourceVector::new(CpuCapacity::percent(150), MemoryMib::mib(768))
            .with_net(NetBandwidth::mbps(200));
        assert_eq!(v.get(Dimension::Cpu), 150);
        assert_eq!(v.get(Dimension::Memory), 768);
        assert_eq!(v.get(Dimension::Network), 200);
        assert_eq!(ResourceVector::from_dims(v.dims()), v);
        for (i, d) in Dimension::ALL.into_iter().enumerate() {
            assert_eq!(d.index(), i);
        }
        assert!(Dimension::Cpu.is_legacy());
        assert!(Dimension::Memory.is_legacy());
        assert!(!Dimension::Network.is_legacy());
    }

    #[test]
    fn demand_fits_and_adds() {
        let node = ResourceDemand::new(CpuCapacity::cores(2), MemoryMib::gib(4));
        let vm = ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::gib(1));
        assert!(vm.fits_in(&node));
        assert!(!(vm + vm + vm).fits_in(&node));
        assert!((vm + vm).fits_in(&node));
    }

    #[test]
    fn demand_fits_requires_every_dimension() {
        let node = ResourceDemand::new(CpuCapacity::cores(2), MemoryMib::gib(1))
            .with_net(NetBandwidth::mbps(100));
        let cpu_heavy = ResourceDemand::new(CpuCapacity::cores(3), MemoryMib::mib(128));
        let mem_heavy = ResourceDemand::new(CpuCapacity::percent(10), MemoryMib::gib(2));
        let net_heavy = ResourceDemand::new(CpuCapacity::percent(10), MemoryMib::mib(128))
            .with_net(NetBandwidth::mbps(200));
        assert!(!cpu_heavy.fits_in(&node));
        assert!(!mem_heavy.fits_in(&node));
        assert!(!net_heavy.fits_in(&node));
    }

    #[test]
    fn component_max_combines_dimensions() {
        let observed = ResourceVector::new(CpuCapacity::percent(10), MemoryMib::gib(1));
        let reserved = ResourceVector::new(CpuCapacity::cores(1), MemoryMib::mib(512))
            .with_net(NetBandwidth::mbps(50));
        let combined = observed.component_max(&reserved);
        assert_eq!(combined.cpu, CpuCapacity::cores(1));
        assert_eq!(combined.memory, MemoryMib::gib(1));
        assert_eq!(combined.net, NetBandwidth::mbps(50));
    }

    #[test]
    fn usage_tracks_free_space() {
        let cap = ResourceDemand::new(CpuCapacity::cores(2), MemoryMib::gib(4));
        let mut usage = ResourceUsage::empty(cap);
        let vm = ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::gib(1));
        assert!(usage.can_host(&vm));
        usage.add(&vm);
        assert_eq!(usage.free().cpu, CpuCapacity::cores(1));
        assert_eq!(usage.free().memory, MemoryMib::gib(3));
        usage.add(&vm);
        assert!(!usage.can_host(&vm));
        assert!(usage.is_within_capacity());
    }

    #[test]
    fn usage_tracks_the_net_dimension() {
        let cap = ResourceDemand::new(CpuCapacity::cores(8), MemoryMib::gib(64))
            .with_net(NetBandwidth::gbps(1));
        let mut usage = ResourceUsage::empty(cap);
        let vm = ResourceDemand::new(CpuCapacity::cores(1), MemoryMib::gib(1))
            .with_net(NetBandwidth::mbps(600));
        usage.add(&vm);
        assert!(usage.is_within_capacity());
        assert!(
            !usage.can_host(&vm),
            "the NIC is the binding dimension: CPU and memory have room"
        );
    }
}
