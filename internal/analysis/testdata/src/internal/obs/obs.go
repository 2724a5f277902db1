// Package obs is a fixture stub of the observability layer: the
// nil-safe handle API (Now, Since, Counter methods) plus the armed-side
// API (New, Serve, WriteFiles) that only cmd/ may touch.
package obs

import "time"

type Time int64

func Now() Time {
	return Time(time.Now().UnixNano()) //simlint:ok clocktaint audited wall-clock boundary (fixture)
}

func Since(t Time) time.Duration {
	return time.Duration(int64(Now()) - int64(t))
}

type Counter struct{ n int64 }

func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n += d
}

type Observer struct {
	counters map[string]*Counter
}

func New() *Observer {
	return &Observer{counters: map[string]*Counter{}}
}

func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	c := o.counters[name]
	if c == nil {
		c = &Counter{}
		o.counters[name] = c
	}
	return c
}

func (o *Observer) WriteFiles(prefix string) error {
	return nil
}

func Serve(addr string, o *Observer) (string, error) {
	return addr, nil
}
