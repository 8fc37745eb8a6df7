//! Physical constants and the UHF ISM channel plan used by the paper.
//!
//! The STPP experiments run on "the 6th channel in the 920–926 MHz ISM
//! band" (the Chinese UHF RFID band, 920.625–924.375 MHz in 250 kHz
//! steps). [`ChannelPlan`] models that band as well as a configurable
//! generic plan so experiments can hop channels like a real reader does.

use serde::{Deserialize, Serialize};

/// Speed of light in vacuum (m/s).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Converts a carrier frequency in Hz to its wavelength in metres.
pub fn wavelength(frequency_hz: f64) -> f64 {
    SPEED_OF_LIGHT / frequency_hz
}

/// A channel plan: a set of equally spaced carrier frequencies the reader
/// may transmit on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelPlan {
    /// Centre frequency of channel 0, in Hz.
    pub base_frequency_hz: f64,
    /// Spacing between adjacent channels, in Hz.
    pub channel_spacing_hz: f64,
    /// Number of channels in the plan.
    pub channel_count: usize,
}

impl ChannelPlan {
    /// The Chinese UHF band used in the paper: 920.625–924.375 MHz,
    /// 16 channels spaced 250 kHz apart.
    pub fn china_920() -> Self {
        ChannelPlan { base_frequency_hz: 920.625e6, channel_spacing_hz: 250e3, channel_count: 16 }
    }

    /// A single-channel plan at the given frequency (useful for analytic
    /// reference profiles which assume a fixed wavelength).
    pub fn single(frequency_hz: f64) -> Self {
        ChannelPlan { base_frequency_hz: frequency_hz, channel_spacing_hz: 0.0, channel_count: 1 }
    }

    /// Centre frequency of channel `index` in Hz.
    ///
    /// Returns `None` when the index is outside the plan.
    pub fn frequency(&self, index: usize) -> Option<f64> {
        if index < self.channel_count {
            Some(self.base_frequency_hz + self.channel_spacing_hz * index as f64)
        } else {
            None
        }
    }

    /// Wavelength of channel `index` in metres.
    pub fn wavelength(&self, index: usize) -> Option<f64> {
        self.frequency(index).map(wavelength)
    }

    /// The channel index the paper uses ("the 6th channel"): index 5 when
    /// counting from zero, clamped into the plan.
    pub fn paper_default_channel(&self) -> usize {
        5.min(self.channel_count.saturating_sub(1))
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channel_count
    }

    /// Whether the plan has no channels (never true for the built-in plans).
    pub fn is_empty(&self) -> bool {
        self.channel_count == 0
    }
}

impl Default for ChannelPlan {
    fn default() -> Self {
        ChannelPlan::china_920()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_of_common_uhf_frequency() {
        // 920 MHz ≈ 32.6 cm wavelength.
        let lambda = wavelength(920e6);
        assert!((lambda - 0.3258).abs() < 1e-3, "lambda = {lambda}");
    }

    #[test]
    fn china_plan_channel_6_frequency() {
        let plan = ChannelPlan::china_920();
        let f = plan.frequency(plan.paper_default_channel()).unwrap();
        assert!(f > 920e6 && f < 926e6, "channel 6 must lie inside the 920-926 MHz band, got {f}");
        assert_eq!(plan.len(), 16);
        assert!(!plan.is_empty());
    }

    #[test]
    fn out_of_range_channel_is_none() {
        let plan = ChannelPlan::china_920();
        assert!(plan.frequency(16).is_none());
        assert!(plan.wavelength(100).is_none());
        assert!(plan.frequency(15).is_some());
    }

    #[test]
    fn single_channel_plan() {
        let plan = ChannelPlan::single(915e6);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.paper_default_channel(), 0);
        assert!((plan.frequency(0).unwrap() - 915e6).abs() < 1.0);
    }

    #[test]
    fn channel_spacing_is_respected() {
        let plan = ChannelPlan::china_920();
        let f0 = plan.frequency(0).unwrap();
        let f1 = plan.frequency(1).unwrap();
        assert!((f1 - f0 - 250e3).abs() < 1.0);
    }
}
