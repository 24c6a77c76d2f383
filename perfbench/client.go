package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Verdict is the part of a /v1/check answer the oracle reads.
type Verdict struct {
	Status string `json:"status"`
	Known  bool   `json:"known"`
}

// Client talks to one keyserverd over at most conns keep-alive
// connections.
type Client struct {
	base string
	hc   *http.Client
}

func NewClient(addr string, conns int) *Client {
	return &Client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
			},
		},
	}
}

// Check submits k and decodes the verdict. reqID, when set, is sent as
// X-Request-Id so server events correlate with the benchmark's span.
func (c *Client) Check(ctx context.Context, k Key, reqID string) (Verdict, error) {
	req := map[string]string{"modulus_hex": k.Hex()}
	if k.ExponentHex != "" {
		req["exponent_hex"] = k.ExponentHex
	}
	body, _ := json.Marshal(req)
	var v Verdict
	err := c.post(ctx, "/v1/check", body, reqID, &v)
	return v, err
}

func (c *Client) post(ctx context.Context, path string, body []byte, reqID string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// Get fetches a JSON document.
func (c *Client) Get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// CacheStats reads the verdict-cache counters from /v1/stats.
func (c *Client) CacheStats(ctx context.Context) (hits, misses int64, err error) {
	var st struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	err = c.Get(ctx, "/v1/stats", &st)
	return st.Cache.Hits, st.Cache.Misses, err
}

// Judge is the verdict oracle: the served status must be the planted
// class, and membership must match how the key was made.
func Judge(k Key, v Verdict) error {
	if v.Status != string(k.Want) {
		return fmt.Errorf("modulus %.16s…: verdict %q, want %q", k.Hex(), v.Status, k.Want)
	}
	if v.Known != k.Known {
		return fmt.Errorf("modulus %.16s…: known=%v, want %v", k.Hex(), v.Known, k.Known)
	}
	return nil
}
