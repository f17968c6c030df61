package scenario

import "fmt"

// finish closes trace writers (flushing spill files to disk) and returns
// the output bundle. Every monitor is flushed and closed even when an
// earlier one fails — a batch caller keeps running after a scenario
// error, so an early return here would leak the remaining spill files'
// descriptors — and the first failure is reported.
func (s *state) finish() (*Output, error) {
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, m := range s.monitors {
		m.flush()
		if err := m.w.Close(); err != nil {
			fail(fmt.Errorf("scenario: closing trace for radio %d: %w", m.id, err))
		}
		if m.werr != nil {
			fail(fmt.Errorf("scenario: writing trace for radio %d: %w", m.id, m.werr))
		}
		if m.f != nil {
			if err := m.bw.Flush(); err != nil {
				fail(fmt.Errorf("scenario: flushing spilled trace for radio %d: %w", m.id, err))
			}
			if err := m.f.Close(); err != nil {
				fail(fmt.Errorf("scenario: closing spilled trace for radio %d: %w", m.id, err))
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// Backfill ground truth for flows still open at the horizon so the
	// fairness analysis sees their partial progress.
	horizonUS := s.cfg.Day.US64()
	for _, cl := range s.clients {
		for _, fs := range cl.flows {
			rec := &s.out.FlowCCs[fs.truthIdx]
			rec.EndUS = horizonUS
			rec.BytesAcked = fs.ep.Stats.BytesAcked + fs.server.Stats.BytesAcked
		}
	}
	return s.out, nil
}
