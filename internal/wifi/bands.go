// Package wifi describes the 802.11 frequency plan Chronos hops across:
// the 2.4 GHz ISM channels and the 5 GHz U-NII/DFS channels available to
// an Intel 5300 class 802.11n radio in the U.S., together with the HT20
// OFDM subcarrier layout over which CSI is reported.
package wifi

import "fmt"

// SpeedOfLight is the propagation speed used to convert time of flight to
// distance, in meters per second.
const SpeedOfLight = 299792458.0

// SubcarrierSpacing is the 802.11n OFDM subcarrier spacing (312.5 kHz).
const SubcarrierSpacing = 312.5e3

// BandwidthHT20 is the nominal channel bandwidth in hertz.
const BandwidthHT20 = 20e6

// Band is one Wi-Fi frequency band (a 20 MHz channel) identified by its
// IEEE channel number and center frequency.
type Band struct {
	Channel int     // IEEE channel number (1..14, 36..165)
	Center  float64 // center frequency in Hz
	DFS     bool    // subject to dynamic frequency selection in the U.S.
}

// GHz24 reports whether the band lies in the 2.4 GHz ISM range, where the
// Intel 5300 firmware reports channel phase modulo π/2 (§11 of the paper).
func (b Band) GHz24() bool { return b.Center < 3e9 }

// String implements fmt.Stringer.
func (b Band) String() string {
	return fmt.Sprintf("ch%d(%.3fGHz)", b.Channel, b.Center/1e9)
}

// USBands returns the 35 U.S. Wi-Fi bands with independent center
// frequencies that the paper sweeps (§5): 2.4 GHz channels 1, 6, 11
// (the non-overlapping set), the 5 GHz U-NII-1/2 channels 36–64, the DFS
// channels 100–140, and U-NII-3 channels 149–165.
//
// The returned slice is freshly allocated; callers may reorder it.
func USBands() []Band {
	var bands []Band
	// 2.4 GHz: non-overlapping 20 MHz channels. Channel k centers at
	// 2407 + 5k MHz for k=1..13.
	for _, ch := range []int{1, 6, 11} {
		bands = append(bands, Band{Channel: ch, Center: (2407 + 5*float64(ch)) * 1e6})
	}
	// 5 GHz: channel k centers at 5000 + 5k MHz.
	add5 := func(chans []int, dfs bool) {
		for _, ch := range chans {
			bands = append(bands, Band{Channel: ch, Center: (5000 + 5*float64(ch)) * 1e6, DFS: dfs})
		}
	}
	// U-NII-1 and U-NII-2A: 36..64 in steps of 4 (8 channels).
	add5([]int{36, 40, 44, 48, 52, 56, 60, 64}, false)
	// U-NII-2C DFS: 100..140 in steps of 4 (11 channels); many 802.11h
	// radios (including the Intel 5300) support these.
	add5([]int{100, 104, 108, 112, 116, 120, 124, 128, 132, 136, 140}, true)
	// U-NII-3: 149..165 in steps of 4 (5 channels).
	add5([]int{149, 153, 157, 161, 165}, false)

	// 35 total bands with independent center frequencies: pad with the
	// remaining distinct 2.4 GHz centers the card can tune (channels 3, 4,
	// 5, 8, 9, 13, 2, 12): the paper counts 35 usable bands across
	// 2.4+5 GHz; partially overlapping 2.4 GHz channels still have
	// independent center frequencies, which is all the CRT math needs.
	for _, ch := range []int{2, 3, 4, 5, 8, 9, 12, 13} {
		bands = append(bands, Band{Channel: ch, Center: (2407 + 5*float64(ch)) * 1e6})
	}
	return bands
}

// Bands5GHz returns only the 5 GHz subset of USBands (quirk-free CSI).
func Bands5GHz() []Band {
	var out []Band
	for _, b := range USBands() {
		if !b.GHz24() {
			out = append(out, b)
		}
	}
	return out
}

// Bands24GHz returns only the 2.4 GHz subset of USBands.
func Bands24GHz() []Band {
	var out []Band
	for _, b := range USBands() {
		if b.GHz24() {
			out = append(out, b)
		}
	}
	return out
}

// CSISubcarriers returns the 30 subcarrier indices for which an Intel
// 5300 reports CSI in HT20 mode: every other subcarrier of the 56 usable
// (−28..−1, 1..28), i.e. ±28, ±26, ..., ±2 — 14 on each side plus ±1
// endpoints adjusted to the CSI Tool grouping. The zero subcarrier is
// never reported (DC), which is why Chronos interpolates (§5).
func CSISubcarriers() []int {
	// The 802.11n CSI Tool reports grouped subcarriers:
	// -28,-26,...,-2 and 2,4,...,28 would be 28; the tool's actual 30
	// indices include -28..-2 step 2 (14) plus -1? The canonical Intel
	// 5300 list for HT20 is:
	//   -28,-26,-24,-22,-20,-18,-16,-14,-12,-10,-8,-6,-4,-2,-1,
	//     1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28
	idx := []int{
		-28, -26, -24, -22, -20, -18, -16, -14, -12, -10, -8, -6, -4, -2, -1,
		1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28,
	}
	return append([]int(nil), idx...)
}

// SubcarrierFreq returns the absolute frequency of subcarrier k in band b.
func SubcarrierFreq(b Band, k int) float64 {
	return b.Center + float64(k)*SubcarrierSpacing
}

// Centers extracts the center frequencies of bands, in order.
func Centers(bands []Band) []float64 {
	out := make([]float64, len(bands))
	for i, b := range bands {
		out[i] = b.Center
	}
	return out
}
