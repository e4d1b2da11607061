package serve

import "sync"

// memoBudget bounds the response memo's key+value bytes across both
// generations.
const memoBudget = 512 << 10

// respMemo maps the exact bytes of a POST /v1/plan body to the exact
// bytes of its 200 store-hit response. It is sound because a store
// entry never changes once written, so a store hit's response is a
// pure function of the request body (DESIGN §14). It holds two
// generations: an entry used since the last rotation sits in cur, and
// once cur would pass half the budget it becomes prev and a fresh cur
// starts, so the memo keeps the recently used entries and never holds
// more than memoBudget bytes.
type respMemo struct {
	mu       sync.Mutex
	cur      map[string][]byte //scatterlint:guardedby mu
	prev     map[string][]byte //scatterlint:guardedby mu
	curBytes int               //scatterlint:guardedby mu
}

// get returns the memoised response for body, promoting a hit in the
// previous generation into the current one.
func (m *respMemo) get(body []byte) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if resp, ok := m.cur[string(body)]; ok {
		return resp, true
	}
	resp, ok := m.prev[string(body)]
	if ok {
		m.putLocked(string(body), resp)
	}
	return resp, ok
}

// put memoises resp, which the caller must never modify, as the
// response to body.
func (m *respMemo) put(body, resp []byte) {
	m.mu.Lock()
	m.putLocked(string(body), resp)
	m.mu.Unlock()
}

func (m *respMemo) putLocked(key string, resp []byte) {
	size := len(key) + len(resp)
	if size > memoBudget/2 {
		return
	}
	if _, ok := m.cur[key]; ok {
		return
	}
	if m.cur == nil || m.curBytes+size > memoBudget/2 {
		m.prev, m.cur, m.curBytes = m.cur, make(map[string][]byte), 0
	}
	m.cur[key] = resp
	m.curBytes += size
}
