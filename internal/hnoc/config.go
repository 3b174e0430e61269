package hnoc

import (
	"encoding/json"
	"fmt"
	"os"
)

// JSON configuration support. Load profiles are polymorphic, so the cluster
// is marshalled through an explicit wire form rather than the in-memory
// structs.

type clusterJSON struct {
	Machines  []machineJSON  `json:"machines"`
	Remote    LinkSpec       `json:"remote"`
	Local     LinkSpec       `json:"local"`
	Overrides []LinkOverride `json:"overrides,omitempty"`
}

type machineJSON struct {
	Name   string    `json:"name"`
	Speed  float64   `json:"speed"`
	Load   *loadJSON `json:"load,omitempty"`
	Failed bool      `json:"failed,omitempty"`
}

type loadJSON struct {
	Kind      string  `json:"kind"` // "constant", "step", "sine"
	Fraction  float64 `json:"fraction,omitempty"`
	Steps     []Step  `json:"steps,omitempty"`
	Base      float64 `json:"base,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	Period    float64 `json:"period,omitempty"`
}

func loadToJSON(l LoadProfile) (*loadJSON, error) {
	switch v := l.(type) {
	case nil:
		return nil, nil
	case ConstantLoad:
		if v.Fraction == 1 {
			return nil, nil
		}
		return &loadJSON{Kind: "constant", Fraction: v.Fraction}, nil
	case *StepLoad:
		return &loadJSON{Kind: "step", Steps: append([]Step(nil), v.steps...)}, nil
	case SineLoad:
		return &loadJSON{Kind: "sine", Base: v.Base, Amplitude: v.Amplitude, Period: v.Period}, nil
	default:
		return nil, fmt.Errorf("hnoc: cannot serialise load profile of type %T", l)
	}
}

func loadFromJSON(j *loadJSON) (LoadProfile, error) {
	if j == nil {
		return nil, nil
	}
	switch j.Kind {
	case "constant":
		if j.Fraction <= 0 || j.Fraction > 1 {
			return nil, fmt.Errorf("hnoc: constant load fraction %v outside (0,1]", j.Fraction)
		}
		return ConstantLoad{Fraction: j.Fraction}, nil
	case "step":
		return NewStepLoad(j.Steps...), nil
	case "sine":
		if j.Period <= 0 {
			return nil, fmt.Errorf("hnoc: sine load needs positive period, got %v", j.Period)
		}
		return SineLoad{Base: j.Base, Amplitude: j.Amplitude, Period: j.Period}, nil
	default:
		return nil, fmt.Errorf("hnoc: unknown load profile kind %q", j.Kind)
	}
}

// MarshalJSON implements json.Marshaler for Cluster.
func (c *Cluster) MarshalJSON() ([]byte, error) {
	out := clusterJSON{Remote: c.Remote, Local: c.Local, Overrides: c.Overrides}
	for _, m := range c.Machines {
		lj, err := loadToJSON(m.Load)
		if err != nil {
			return nil, err
		}
		out.Machines = append(out.Machines, machineJSON{
			Name: m.Name, Speed: m.Speed, Load: lj, Failed: m.Failed,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalJSON implements json.Unmarshaler for Cluster.
func (c *Cluster) UnmarshalJSON(data []byte) error {
	var in clusterJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	c.Machines = c.Machines[:0]
	for _, m := range in.Machines {
		load, err := loadFromJSON(m.Load)
		if err != nil {
			return err
		}
		c.Machines = append(c.Machines, Machine{
			Name: m.Name, Speed: m.Speed, Load: load, Failed: m.Failed,
		})
	}
	c.Remote = in.Remote
	c.Local = in.Local
	c.Overrides = in.Overrides
	return c.Validate()
}

// LoadFile reads a cluster configuration from a JSON file.
func LoadFile(path string) (*Cluster, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := new(Cluster)
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("hnoc: parsing %s: %w", path, err)
	}
	return c, nil
}
