package compress

import (
	"sync"
)

// Monitor continuously tracks compression efficiency in production and
// decides when re-sampling and re-training are necessary (paper §4.2:
// "re-sampling and retraining are triggered when the compression ratio
// falls below a baseline level or when the rate of unmatched records
// exceeds a predefined threshold").
//
// Note on polarity: the paper's compression ratio is compressed/raw, so
// *lower* is better and "falls below a baseline" in the paper's prose means
// the achieved saving degrades — here expressed as the measured ratio
// *exceeding* BaselineRatio.
type Monitor struct {
	mu        sync.Mutex
	rawBytes  int64
	compBytes int64
	records   int64
	unmatched int64

	// BaselineRatio is the acceptable compressed/raw ratio; exceeding it
	// flags retraining. Set from the ratio achieved right after training.
	BaselineRatio float64
	// Slack multiplies the baseline before comparison (default 1.15).
	Slack float64
	// UnmatchedThreshold is the tolerated unmatched-record fraction
	// (default 0.05). Only meaningful for pattern compressors.
	UnmatchedThreshold float64
	// MinRecords avoids flapping on tiny samples (default 1000).
	MinRecords int64
}

// NewMonitor creates a monitor with the given post-training baseline ratio.
func NewMonitor(baseline float64) *Monitor {
	return &Monitor{
		BaselineRatio:      baseline,
		Slack:              1.15,
		UnmatchedThreshold: 0.05,
		MinRecords:         1000,
	}
}

// Observe records one compression outcome. unmatched reports whether the
// record failed pattern matching (escape-coded).
func (m *Monitor) Observe(rawLen, compLen int, unmatched bool) {
	m.mu.Lock()
	m.rawBytes += int64(rawLen)
	m.compBytes += int64(compLen)
	m.records++
	if unmatched {
		m.unmatched++
	}
	m.mu.Unlock()
}

// Ratio returns the observed compressed/raw ratio (1.0 when no data).
func (m *Monitor) Ratio() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rawBytes == 0 {
		return 1
	}
	return float64(m.compBytes) / float64(m.rawBytes)
}

// UnmatchedRate returns the fraction of records that missed all patterns.
func (m *Monitor) UnmatchedRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.records == 0 {
		return 0
	}
	return float64(m.unmatched) / float64(m.records)
}

// Records returns the number of observed records.
func (m *Monitor) Records() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.records
}

// RetrainNeeded reports whether the drift thresholds are exceeded.
func (m *Monitor) RetrainNeeded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.records < m.MinRecords {
		return false
	}
	if m.rawBytes > 0 {
		ratio := float64(m.compBytes) / float64(m.rawBytes)
		if m.BaselineRatio > 0 && ratio > m.BaselineRatio*m.Slack {
			return true
		}
	}
	if float64(m.unmatched)/float64(m.records) > m.UnmatchedThreshold {
		return true
	}
	return false
}

// IsEscape reports whether a PBC-compressed buffer is an escape record
// (used by callers to feed Monitor.Observe's unmatched flag).
func IsEscape(compressed []byte) bool {
	return len(compressed) > 0 && compressed[0] == pbcEscape
}
