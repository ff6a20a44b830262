package sim

// Resource models a serially shared resource in virtual time (a CPU core,
// a NIC DMA engine, a link transmitter): work items submitted while the
// resource is busy queue behind it. This is the primitive that produces
// head-of-line blocking in the host model.
type Resource struct {
	eng *Engine
	// freeAt is the first instant the resource can start new work.
	freeAt Time
	// Busy accumulates total occupied time, for utilization accounting.
	Busy Time
}

// NewResource returns an idle resource bound to eng.
func NewResource(eng *Engine) *Resource {
	return &Resource{eng: eng}
}

// reserve books dur of work starting no earlier than now and returns the
// completion time — the shared core of the Acquire variants.
func (r *Resource) reserve(dur Time) Time {
	if dur < 0 {
		dur = 0
	}
	start := r.eng.Now()
	if r.freeAt > start {
		start = r.freeAt
	}
	end := start + dur
	r.freeAt = end
	r.Busy += dur
	return end
}

// Acquire reserves the resource for dur starting no earlier than now, and
// schedules done (which may be nil) to run when the work completes. It
// returns the completion time.
func (r *Resource) Acquire(dur Time, done func()) Time {
	end := r.reserve(dur)
	if done != nil {
		r.eng.At(end, done)
	}
	return end
}

// AcquireAction is Acquire with a pooled Action completion instead of a
// closure — the allocation-free path per-packet work (dispatch, softirq
// handoff) uses.
func (r *Resource) AcquireAction(dur Time, done Action) Time {
	end := r.reserve(dur)
	if done != nil {
		r.eng.PostAction(end, done)
	}
	return end
}

// FreeAt reports when the resource next becomes idle (may be in the past).
func (r *Resource) FreeAt() Time { return r.freeAt }

// QueueDelay reports how long newly submitted work would wait before
// starting, given the current backlog.
func (r *Resource) QueueDelay() Time {
	d := r.freeAt - r.eng.Now()
	if d < 0 {
		return 0
	}
	return d
}

// Utilization reports Busy time as a fraction of elapsed virtual time
// since start (0 if no time has elapsed).
func (r *Resource) Utilization(since Time) float64 {
	elapsed := r.eng.Now() - since
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.Busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
